"""Traced twin server: install the ledger's wrappers, then ``serve``.

Builds the same twin ``python -m repro serve --start-paused`` builds, with
the ledger of :mod:`ledger` installed first, and serves it until a client
posts ``/api/shutdown``.  On exit it writes the ledger (self times, counts,
samples, the event bus counters) as JSON and its spans as JSON lines.

    python3 perfbench/twin_launcher.py --port 8123 --seed 1 --days 2 \
        --ledger-out .perfbench/twin-ledger.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from unittest import mock

from ledger import Ledger, install


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--days", type=float, required=True)
    parser.add_argument("--ledger-out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath("src"))
    ledger = Ledger(f"twin-serve-{args.seed}-{os.getpid()}")
    uninstall = install(ledger)
    from repro.service import ScenarioConfig, TwinConfig, build_twin, serve
    from repro.service.twin import DigitalTwin

    # the timed phase starts at resume: remember each layer's self time then
    at_resume = {}
    resume = DigitalTwin.resume

    def resume_marked(self):
        at_resume.update(ledger.self_s)
        return resume(self)

    try:
        with mock.patch.object(DigitalTwin, "resume", resume_marked):
            twin = build_twin(ScenarioConfig(seed=args.seed,
                                             duration_days=args.days),
                              TwinConfig(start_paused=True))
            serve(twin, port=args.port)
    finally:
        uninstall()
    dump = ledger.to_dict()
    dump["self_s_at_resume"] = at_resume
    dump["bus"] = {"published": twin.bus.published,
                   "dropped": twin.bus.dropped}
    dump["commands_applied"] = twin.commands_applied
    with open(args.ledger_out, "w", encoding="utf-8") as f:
        json.dump(dump, f)
    ledger.write_spans(os.path.splitext(args.ledger_out)[0] + "-spans.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main())
