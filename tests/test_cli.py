"""Tests for the CLI experiment runner."""

import json

import pytest

from repro import cli
from repro.cli import EXPERIMENTS, main
from repro.obs import get_obs


def test_list_shows_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for eid in ("F4", "F3", "E1", "E12", "A1", "A4"):
        assert eid in out


def test_unknown_experiment_errors(capsys):
    assert main(["run", "ZZ"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_single_experiment(capsys):
    assert main(["run", "A1"]) == 0
    out = capsys.readouterr().out
    assert "[A1]" in out
    assert "completed in" in out


def test_run_case_insensitive(capsys):
    assert main(["run", "a1"]) == 0
    assert "[A1]" in capsys.readouterr().out


@pytest.mark.parametrize("eid", ["A1", "E6"])   # E6's run() takes no seed
def test_run_with_seed_override(eid, capsys):
    assert main(["run", eid, "--seed", "123"]) == 0
    out1 = capsys.readouterr().out
    assert main(["run", eid, "--seed", "123"]) == 0
    out2 = capsys.readouterr().out
    assert out1.split("completed")[0] == out2.split("completed")[0]  # deterministic


def _seed_sensitive_run(seed: int = 101) -> str:
    """An experiment whose simulation raises TypeError off its default seed."""
    if seed != 101:
        raise TypeError(f"bad input deep inside the seed-{seed} simulation")
    return "seed-101 table"


def test_seeded_type_error_propagates(monkeypatch, capsys):
    """A TypeError from a seeded run is an error, not a cue to rerun the
    experiment at its default seed and print that table instead."""
    monkeypatch.setattr(cli, "EXPERIMENTS", {})
    monkeypatch.setattr(cli, "_registry",
                        lambda: {"ZT": ("seed probe", _seed_sensitive_run)})
    with pytest.raises(TypeError, match="seed-7"):
        main(["run", "ZT", "--seed", "7", "--no-cache"])
    assert "seed-101 table" not in capsys.readouterr().out
    assert main(["run", "ZT", "--no-cache"]) == 0
    assert "seed-101 table" in capsys.readouterr().out


def test_registry_is_complete():
    main(["list"])  # populate
    assert len(EXPERIMENTS) == 22
    assert set(EXPERIMENTS) >= {f"E{i}" for i in range(1, 13)}


# --------------------------------------------------------------------------- #
# observability / export flags
# --------------------------------------------------------------------------- #
def test_run_with_json_export(tmp_path, capsys):
    out = tmp_path / "a1.json"
    assert main(["run", "A1", "--json", str(out)]) == 0
    back = json.loads(out.read_text())
    assert back["experiment_id"] == "A1"
    assert back["data"]  # raw numbers came along
    assert str(out) in capsys.readouterr().out


def test_run_fully_instrumented(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    chrome = tmp_path / "t.json"
    metrics = tmp_path / "m.json"
    assert main(["run", "F3", "--trace", str(trace), "--chrome-trace",
                 str(chrome), "--profile", "--metrics-out", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "profile —" in out
    # JSONL trace: every line parses, several record kinds present
    kinds = set()
    for line in trace.read_text().splitlines():
        kinds.add(json.loads(line)["kind"])
    assert {"request", "regulator", "engine"} <= kinds
    # chrome trace parses and carries events
    doc = json.loads(chrome.read_text())
    assert len(doc["traceEvents"]) > 100
    # metrics snapshot is a non-empty mapping
    snap = json.loads(metrics.read_text())
    assert snap and any(k.startswith("requests_completed") for k in snap)


def test_instrumented_output_identical_to_plain(capsys):
    assert main(["run", "A1", "--seed", "5"]) == 0
    plain = capsys.readouterr().out.split("completed")[0]
    assert main(["run", "A1", "--seed", "5", "--profile"]) == 0
    instrumented = capsys.readouterr().out.split("completed")[0]
    assert plain == instrumented


def test_obs_uninstalled_after_run(tmp_path):
    before = get_obs()
    assert main(["run", "A1", "--metrics-out", str(tmp_path / "m.json")]) == 0
    assert get_obs() is before
    assert not get_obs().active


@pytest.mark.parametrize("before", [None, "vector"])
def test_kernel_flag_does_not_leak_into_caller_env(before, monkeypatch, capsys):
    """``--kernel`` reaches the run (and its worker processes) through
    ``$REPRO_KERNEL``, but an in-process ``main`` restores the caller's value."""
    import os

    from repro.experiments.common import small_city

    if before is None:
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
    else:
        monkeypatch.setenv("REPRO_KERNEL", before)
    seen = []
    monkeypatch.setattr(cli, "EXPERIMENTS", {})
    monkeypatch.setattr(cli, "_registry", lambda: {"ZK": (
        "kernel probe", lambda: seen.append(os.environ.get("REPRO_KERNEL")))})
    assert main(["run", "ZK", "--kernel", "surrogate", "--no-cache"]) == 0
    assert seen == ["surrogate"]
    assert os.environ.get("REPRO_KERNEL") == before
    assert small_city().kernel == "vector"


def test_scalar_kernel_rejected_by_cli(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "A1", "--kernel", "scalar"])
    assert exc.value.code == 2
    monkeypatch.setenv("REPRO_KERNEL", "scalar")
    assert main(["run", "A1", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "'vector'" in err and "'surrogate'" in err
