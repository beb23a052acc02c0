"""Regenerate the committed golden session journals.

``session_journal_golden.jsonl`` is a flight-recorder journal of one
small deterministic demo-style run (the paper's Case-1 workload, seed
7, oracle user).  CI and the test suite replay it on every run
(``python -m repro replay tests/golden/session_journal_golden.jsonl``),
so any behavioral change in the engine — projection choice, density
profiles, RNG consumption, pruning, termination — shows up as a
divergence at an exact sequence number.

``session_journal_binned.jsonl`` is the same run under
``kde_mode="binned"``: the approximate density mode carries its own
committed behavioral record, so a change to the binned evaluator cannot
hide behind the exact-mode gate.  Its recorded config still carries
``kde_subsample``, a field since retired; ``SearchConfig.from_dict``
drops it on replay.

Replay has two tiers (``docs/OBSERVABILITY.md``, "Replay as a
correctness oracle").  A journal whose header ``platform`` stamp
matches the replaying host replays byte-identical.  Elsewhere, or
without a stamp, every field is still exact except the KDE-grid
digest and the profile statistics, which may drift within
:func:`repro.obs.replay.kde_drift_bound`.  The committed goldens stay
as recorded: they predate the stamp, so every host replays them in
the second tier, and they are not regenerated to gain one.  A journal
this script writes carries the stamp of the host that wrote it.

Run from the repository root::

    PYTHONPATH=src python tests/golden/make_session_journal.py [modes...]

With no arguments only the binned journal is regenerated —
the exact-mode golden predates the kde_mode knob and re-baselining it
is a deliberate act (pass ``exact`` explicitly).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro.core.config import SearchConfig
from repro.core.engine import SearchEngine
from repro.core.search import drive
from repro.data.synthetic import case1_dataset
from repro.interaction.oracle import OracleUser
from repro.obs.journal import SessionJournal
from repro.obs.replay import replay_journal

HERE = Path(__file__).parent

#: Output journal per kde_mode; the exact journal keeps its legacy name.
OUTPUTS = {
    "exact": HERE / "session_journal_golden.jsonl",
    "binned": HERE / "session_journal_binned.jsonl",
}

SEED = 7
N_POINTS = 500
SUPPORT = 12


def generate(mode: str) -> None:
    """Write and verify the golden journal for one kde_mode."""
    out = OUTPUTS[mode]
    data = case1_dataset(np.random.default_rng(SEED), n_points=N_POINTS)
    dataset = data.dataset
    query_index = int(dataset.cluster_indices(0)[0])
    journal = SessionJournal.create(
        out,
        provenance={"kind": "case1", "seed": SEED, "n_points": N_POINTS},
    )
    config = SearchConfig(support=SUPPORT, kde_mode=mode)
    engine = SearchEngine(dataset, config, journal=journal)
    result = drive(
        engine, dataset.points[query_index], OracleUser(dataset, query_index)
    )
    journal.close()
    report = replay_journal(out)
    assert report.clean, report.describe()
    print(
        f"wrote {out.name} ({report.records} records, "
        f"{result.session.total_views} views, replay clean)"
    )


def main() -> None:
    modes = sys.argv[1:] or ["binned"]
    for mode in modes:
        if mode not in OUTPUTS:
            raise SystemExit(f"unknown kde_mode {mode!r}; known: {sorted(OUTPUTS)}")
        generate(mode)


if __name__ == "__main__":
    main()
