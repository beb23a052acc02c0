"""Deterministic replay and inspection of session journals.

:func:`replay_journal` is the flight recorder's payoff: it re-executes
a journaled session from its recorded inputs — dataset provenance,
configuration, query, and the exact sequence of user decisions — and
diffs the live engine's state digests against the recorded ones at
every view, pinpointing the **first divergent sequence number**.  A
clean replay proves the engine still reproduces the session; a
divergence localizes exactly where behavior changed.  Every logged
session is thereby a regression test
(``python -m repro replay <journal>``).

Two tiers of "reproduces" (:class:`ViewComparator`).  Every compared
field is exact — live sets, bases, RNG states, decisions, neighbors,
probabilities — except the two derived from the KDE grid,
``density_digest`` and ``stats``.  Those are sums of kernel products
in an order the BLAS build and its CPU kernel choose, so their last
bits belong to the numeric platform, not to the engine:

* when the journal header's ``platform`` stamp equals this host's
  (:func:`~repro.obs.journal.host_platform`), they are byte-exact too
  and the replay is bit-for-bit;
* when the journal was recorded on another platform, or carries no
  stamp, a ``density_digest`` mismatch is reported as numeric *drift*
  rather than a divergence, as long as every ``stats`` float stays
  within :func:`kde_drift_bound` of its recorded value
  (``query_percentile`` stays exact).  :attr:`ReplayReport.drift_seqs`
  lists the drifting views.

:func:`inspect_journal` renders the validated journal as a
human-readable timeline plus summary statistics
(``python -m repro inspect <journal>``).

Replay needs the dataset.  Journals written by the CLI carry a
*provenance* record in their header (generator kind, seed, size), from
which :func:`dataset_from_provenance` rebuilds the identical synthetic
dataset; library users can instead pass a dataset explicitly.  Either
way the dataset is verified against the recorded fingerprint before
any comparison — a mismatched dataset is an operator error
(:class:`~repro.exceptions.JournalError`), not a divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.exceptions import JournalError, ReproError
from repro.obs.journal import (
    JournalRecord,
    host_platform,
    journal_summary,
    read_journal,
    rng_state_digest,
    view_payload,
)
from repro.obs.logging import get_logger

__all__ = [
    "Divergence",
    "ReplayReport",
    "replay_journal",
    "inspect_journal",
    "dataset_from_provenance",
    "VIEW_COMPARE_FIELDS",
    "DRIFT_FIELDS",
    "ViewComparator",
    "kde_drift_bound",
    "kernel_sum_length",
]

_log = get_logger("obs.replay")

#: Fields of :func:`~repro.obs.journal.view_payload` diffed per view.
VIEW_COMPARE_FIELDS = (
    "step",
    "major",
    "minor",
    "live_count",
    "live_digest",
    "basis_digest",
    "density_digest",
    "rng_digest",
    "stats",
)

#: The view fields derived from the KDE grid: the only ones a journal
#: recorded on another numeric platform may move (within
#: :func:`kde_drift_bound`).
DRIFT_FIELDS = ("density_digest", "stats")

#: Profile statistics compared exactly in every tier: a count of grid
#: cells below the query density, not a rounded sum.
_EXACT_STATS = ("query_percentile",)
#: Ratios of two drifting statistics, held to twice the bound.
_RATIO_STATS = ("peak_to_median",)

#: Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0**-53
#: Slack for kernel evaluation and grid-wide means (see kde_drift_bound).
_SLACK_ULPS = 64


def kde_drift_bound(m: int) -> float:
    """Relative drift allowed in a view's profile statistics across
    numeric platforms, for a kernel sum of length *m*.

    Every grid density is ``c * (t_1 + ... + t_m)`` with nonnegative
    terms ``t_i`` (products of Gaussian kernel factors).  Summed in any
    order in double precision, the computed sum is ``S * (1 + theta)``
    with ``|theta| <= gamma(m-1)``, where ``gamma(k) = k*u / (1 - k*u)``
    and ``u = 2**-53`` (for nonnegative terms the relative bound holds
    whatever the order; Higham, *Accuracy and Stability of Numerical
    Algorithms*, §4.2).  Two platforms that order the sum differently
    therefore agree within ``2*gamma(m-1)``.  Each term comes from the
    platform's ``exp``, a few ulps off, through two factors, a product
    and the final scaling; the grid-wide means use numpy's pairwise
    summation, whose rounding stays within a few dozen ulps on any grid
    this engine builds.  ``64*u`` covers both::

        bound(m) = 2*gamma(m-1) + 64*u        (about 1.2e-13 at m = 500)

    The statistics inherit the bound: the peak and the median are order
    statistics of the grid, and the query density and the two means
    are nonnegative combinations of kernel sums.  ``peak_to_median``
    is a ratio of two of them, so it is held to twice the bound.
    ``query_percentile`` counts grid cells and is compared exactly.
    """
    k = max(int(m) - 1, 0) * _UNIT_ROUNDOFF
    return 2.0 * k / (1.0 - k) + _SLACK_ULPS * _UNIT_ROUNDOFF


def kernel_sum_length(config: Any, live_count: int) -> int:
    """Length ``m`` of the longest nonnegative sum behind a view's grid.

    ``kde_mode="exact"`` sums one kernel term per live point;
    ``"binned"`` blurs the histogram with two chained sums along the
    grid axes, whose rounding is that of one sum
    ``2 * grid_resolution - 1`` terms long.
    """
    if config.kde_mode == "binned":
        return 2 * int(config.grid_resolution) - 1
    return int(live_count)


def _finite(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _stats_within(recorded: Any, live: Any, bound: float) -> bool:
    """True when every live statistic is within the drift bound."""
    if not (isinstance(recorded, dict) and isinstance(live, dict)):
        return False
    if recorded.keys() != live.keys():
        return False
    for name, want in recorded.items():
        got = live[name]
        if got == want:
            continue
        if name in _EXACT_STATS or not (_finite(want) and _finite(got)):
            return False
        scale = 2.0 if name in _RATIO_STATS else 1.0
        if abs(got - want) > scale * bound * max(abs(got), abs(want)):
            return False
    return True


@dataclass(frozen=True)
class Divergence:
    """The first point where the replayed run departs from the record."""

    seq: int
    kind: str  # "session_start" | "view" | "decision" | "result" | ...
    fields: tuple[str, ...]
    detail: str


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of replaying one journal."""

    path: str
    records: int
    views_checked: int
    decisions_replayed: int
    divergence: Divergence | None
    finished: bool
    #: Seqs of views whose KDE-grid fields matched only within the
    #: drift bound (journals recorded on another numeric platform).
    drift_seqs: tuple[int, ...] = ()
    #: The journal header's platform stamp (``None``: unrecorded).
    platform: dict[str, Any] | None = None

    @property
    def clean(self) -> bool:
        """True when every recorded digest matched the live run."""
        return self.divergence is None

    def describe(self) -> str:
        """Multi-line human summary (what the CLI prints)."""
        lines = [
            f"replay of {self.path}:",
            f"  records:   {self.records}",
            f"  views:     {self.views_checked} checked",
            f"  decisions: {self.decisions_replayed} replayed",
        ]
        if self.drift_seqs:
            lines.append(
                f"  drift:     KDE grid at {len(self.drift_seqs)} view(s), "
                "within the rounding bound"
            )
            lines.append(f"  platform:  {_describe_platform(self.platform)}")
            lines.append(
                "  drift at:  seq "
                + ", ".join(str(seq) for seq in self.drift_seqs)
            )
        if self.clean:
            status = "finished" if self.finished else "unfinished session"
            lines.append(f"  verdict:   CLEAN — zero divergence ({status})")
        else:
            d = self.divergence
            lines.append(
                f"  verdict:   DIVERGED at seq {d.seq} ({d.kind})"
            )
            if d.fields:
                lines.append(f"  fields:    {', '.join(d.fields)}")
            lines.append(f"  detail:    {d.detail}")
        return "\n".join(lines)


def dataset_from_provenance(provenance: Any) -> Any:
    """Rebuild the journaled dataset from its header provenance record.

    Supported kinds (what the CLI writes):

    * ``{"kind": "case1", "seed": S, "n_points": N}`` — the paper's
      Case-1 workload (``python -m repro demo``);
    * ``{"kind": "projected_clusters", "seed": S, "spec": {...}}`` —
      an explicit :class:`~repro.data.synthetic.ProjectedClusterSpec`
      (``python -m repro batch``).
    """
    if not isinstance(provenance, dict) or "kind" not in provenance:
        raise JournalError(
            "journal has no dataset provenance; pass the dataset explicitly "
            "to replay_journal(..., dataset=...)"
        )
    kind = provenance["kind"]
    try:
        if kind == "case1":
            from repro.data.synthetic import case1_dataset

            data = case1_dataset(
                np.random.default_rng(int(provenance["seed"])),
                n_points=int(provenance["n_points"]),
            )
            return data.dataset
        if kind == "projected_clusters":
            from repro.data.synthetic import (
                ProjectedClusterSpec,
                generate_projected_clusters,
            )

            spec_payload = dict(provenance["spec"])
            if "cluster_weights" in spec_payload and spec_payload[
                "cluster_weights"
            ] is not None:
                spec_payload["cluster_weights"] = tuple(
                    spec_payload["cluster_weights"]
                )
            spec = ProjectedClusterSpec(**spec_payload)
            data = generate_projected_clusters(
                spec, np.random.default_rng(int(provenance["seed"]))
            )
            return data.dataset
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise JournalError(
            f"cannot rebuild dataset from provenance {provenance!r}: {exc}"
        ) from exc
    raise JournalError(
        f"unknown dataset provenance kind {kind!r}; pass the dataset "
        "explicitly to replay_journal(..., dataset=...)"
    )


def _describe_platform(stamp: dict[str, Any] | None) -> str:
    """One-line summary of a recorded platform stamp."""
    if not stamp:
        return "unrecorded"
    blas = stamp.get("blas") or {}
    parts = [f"numpy {stamp.get('numpy')}"]
    if blas.get("name"):
        parts.append(f"{blas['name']} {blas.get('version')}")
    parts.append(str(stamp.get("machine")))
    return " / ".join(parts)


@dataclass(frozen=True)
class ViewComparator:
    """The per-view oracle of a replay, in the tier its journal allows.

    ``home`` is true when the journal's platform stamp equals this
    host's :func:`~repro.obs.journal.host_platform`: every field of
    :data:`VIEW_COMPARE_FIELDS` is then compared byte for byte.
    Otherwise (another platform, or no stamp) the :data:`DRIFT_FIELDS`
    may differ as long as the statistics stay within
    :func:`kde_drift_bound`; every other field stays exact.
    """

    config: Any
    platform: dict[str, Any] | None
    home: bool

    @classmethod
    def for_journal(cls, records: list[JournalRecord]) -> "ViewComparator":
        """The comparator for a validated journal's views."""
        from repro.core.config import SearchConfig

        start = next((r for r in records if r.type == "session_start"), None)
        if start is None:
            raise JournalError("journal has no session_start record")
        try:
            config = SearchConfig.from_dict(start.payload["config"])
        except ReproError as exc:
            raise JournalError(
                f"journal config cannot be rebuilt: {exc}"
            ) from exc
        stamp = records[0].payload.get("platform")
        return cls(
            config=config,
            platform=stamp,
            home=stamp is not None and stamp == host_platform(),
        )

    def compare(
        self, record: JournalRecord, live: dict[str, Any]
    ) -> tuple[Divergence | None, bool]:
        """Diff one recorded view payload against a live one.

        Returns ``(divergence, drifted)``: ``divergence`` is ``None``
        when the view reproduces in this comparator's tier, and
        ``drifted`` says the KDE-grid fields matched only within the
        drift bound.
        """
        recorded = record.payload
        mismatched = tuple(
            name
            for name in VIEW_COMPARE_FIELDS
            if live.get(name) != recorded.get(name)
        )
        bound = None
        if not self.home and set(mismatched) & set(DRIFT_FIELDS):
            bound = kde_drift_bound(
                kernel_sum_length(self.config, live["live_count"])
            )
            if _stats_within(recorded.get("stats"), live.get("stats"), bound):
                rest = tuple(n for n in mismatched if n not in DRIFT_FIELDS)
                if not rest:
                    return None, True
                mismatched = rest
        if not mismatched:
            return None, False
        parts = [
            f"{name}: recorded={recorded.get(name)!r} live={live.get(name)!r}"
            for name in mismatched[:3]
        ]
        if bound is not None and "stats" in mismatched:
            parts.append(
                f"stats differ beyond the {bound:.2e} relative drift bound"
            )
        divergence = Divergence(
            seq=record.seq,
            kind="view",
            fields=mismatched,
            detail="; ".join(parts),
        )
        return divergence, False


def replay_journal(path: str | Path, *, dataset: Any = None) -> ReplayReport:
    """Re-execute a journaled session and diff it against the record.

    Parameters
    ----------
    path:
        A journal written by a :class:`~repro.obs.journal.SessionJournal`.
        Validated first (hash chain, sequence, schema) — corruption
        raises :class:`JournalError` before any engine runs.
    dataset:
        The dataset the session searched.  ``None`` rebuilds it from
        the journal header's provenance record and verifies it against
        the recorded fingerprint.

    Returns
    -------
    ReplayReport
        ``report.clean`` means zero divergence; otherwise
        ``report.divergence.seq`` is the first divergent record.
    """
    path = Path(path)
    records = read_journal(path)
    if len(records) < 2 or records[1].type != "session_start":
        raise JournalError(
            f"journal {path} has no session_start record to replay from"
        )
    start = records[1]
    payload = start.payload
    comparator = ViewComparator.for_journal(records)
    config = comparator.config

    if dataset is None:
        dataset = dataset_from_provenance(
            records[0].payload.get("provenance")
        )
    # Deferred: repro.core imports this package.
    from repro.core.engine import SearchEngine, ViewRequest
    from repro.core.serialization import dataset_fingerprint
    from repro.interaction.base import UserDecision

    actual = dataset_fingerprint(dataset)
    recorded_fp = payload["dataset"]
    for key in ("size", "dim", "sha256"):
        if recorded_fp.get(key) != actual[key]:
            raise JournalError(
                f"dataset mismatch: journal {key}={recorded_fp.get(key)!r}, "
                f"given dataset {key}={actual[key]!r}"
            )
    divergence: Divergence | None = None
    expected_rng = rng_state_digest(
        np.random.default_rng(config.rng_seed).bit_generator.state
    )
    if expected_rng != payload.get("rng_digest"):
        divergence = Divergence(
            seq=start.seq,
            kind="session_start",
            fields=("rng_digest",),
            detail="initial PCG64 bit-state differs for the recorded seed",
        )

    engine = SearchEngine(dataset, config, structural_spans=False)
    views_checked = 0
    decisions_replayed = 0
    drift_seqs: list[int] = []
    event: Any = None
    if divergence is None:
        event = engine.start(np.asarray(payload["query"], dtype=float))
        for record in records[2:]:
            if record.type == "view":
                if not isinstance(event, ViewRequest):
                    divergence = Divergence(
                        seq=record.seq,
                        kind="view",
                        fields=(),
                        detail="live engine already finished before the "
                        f"recorded view at step {record.payload.get('step')}",
                    )
                    break
                views_checked += 1
                divergence, drifted = comparator.compare(
                    record, view_payload(event, engine.state)
                )
                if divergence is not None:
                    break
                if drifted:
                    drift_seqs.append(record.seq)
            elif record.type == "decision":
                if not isinstance(event, ViewRequest):
                    divergence = Divergence(
                        seq=record.seq,
                        kind="decision",
                        fields=(),
                        detail="live engine already finished before the "
                        "recorded decision at step "
                        f"{record.payload.get('step')}",
                    )
                    break
                selected = np.asarray(
                    record.payload["selected_indices"], dtype=int
                )
                mask = np.isin(
                    np.asarray(event.view.live_indices), selected
                )
                p = record.payload
                try:
                    decision = UserDecision(
                        accepted=bool(p["accepted"]),
                        selected_mask=mask,
                        threshold=(
                            None
                            if p["threshold"] is None
                            else float(p["threshold"])
                        ),
                        weight=float(p["weight"]),
                        note=str(p["note"]),
                    )
                    event = engine.submit(decision)
                except ReproError as exc:
                    divergence = Divergence(
                        seq=record.seq,
                        kind="decision",
                        fields=(),
                        detail=f"replaying the decision failed: {exc}",
                    )
                    break
                decisions_replayed += 1
            elif record.type == "result":
                if isinstance(event, ViewRequest):
                    divergence = Divergence(
                        seq=record.seq,
                        kind="result",
                        fields=(),
                        detail="recorded run finished here but the live "
                        f"engine still awaits a decision at step "
                        f"{event.step}",
                    )
                    break
                divergence = _diff_result(record, event)
                if divergence is not None:
                    break
            # checkpoint / resume markers (and any future record types)
            # carry no comparable engine state: the re-emitted view
            # after a resume is checked against the same pending event.
    if not engine.finished:
        engine.close()
    report = ReplayReport(
        path=str(path),
        records=len(records),
        views_checked=views_checked,
        decisions_replayed=decisions_replayed,
        divergence=divergence,
        finished=engine.finished,
        drift_seqs=tuple(drift_seqs),
        platform=comparator.platform,
    )
    _log.info(
        "replay %s: %s",
        path,
        "clean" if report.clean else f"diverged at seq {divergence.seq}",
    )
    return report


def _diff_result(record: JournalRecord, result: Any) -> Divergence | None:
    """Compare the recorded terminal result against the live one."""
    from repro.obs.journal import array_digest

    p = record.payload
    live = {
        "reason": result.reason.name,
        "support": int(result.support),
        "neighbor_indices": [int(i) for i in result.neighbor_indices],
        "probabilities_digest": array_digest(result.probabilities),
    }
    mismatched = tuple(
        name for name in live if live[name] != p.get(name)
    )
    if not mismatched:
        return None
    parts = [
        f"{name}: recorded={p.get(name)!r} live={live[name]!r}"
        for name in mismatched
        if name != "neighbor_indices"
    ] or ["the neighbor rankings differ"]
    return Divergence(
        seq=record.seq,
        kind="result",
        fields=mismatched,
        detail="; ".join(parts),
    )


# ----------------------------------------------------------------------
# Inspection
# ----------------------------------------------------------------------
def _timeline_line(record: JournalRecord, t0: float) -> str:
    """One formatted timeline row for ``inspect``."""
    p = record.payload
    offset = f"+{record.ts - t0:8.2f}s"
    head = f"{record.seq:>5}  {offset}  {record.type:<14}"
    if record.type == "journal_header":
        provenance = p.get("provenance") or {}
        kind = provenance.get("kind", "-") if isinstance(provenance, dict) else "-"
        body = (
            f"format={p.get('format')} schema={p.get('schema_version')} "
            f"provenance={kind}"
        )
    elif record.type == "session_start":
        ds = p.get("dataset", {})
        body = (
            f"dataset={ds.get('name')} n={ds.get('size')} d={ds.get('dim')} "
            f"support={p.get('support')} "
            f"config={str(p.get('config_digest'))[:12]}"
        )
    elif record.type == "view":
        stats = p.get("stats", {})
        body = (
            f"step {p.get('step'):>3}  major {p.get('major')} "
            f"minor {p.get('minor'):>2}  live {p.get('live_count'):>6}  "
            f"peak/med {float(stats.get('peak_to_median', 0.0)):8.2f}"
        )
    elif record.type == "decision":
        verdict = "accept" if p.get("accepted") else "reject"
        tau = p.get("threshold")
        tau_text = f"tau={tau:.3g}" if isinstance(tau, float) else "tau=-"
        body = (
            f"step {p.get('step'):>3}  {verdict:<6} {tau_text:<12} "
            f"selected {p.get('selected_count'):>5}"
        )
    elif record.type in ("checkpoint", "resume"):
        body = (
            f"step {p.get('step'):>3}  major {p.get('major')} "
            f"minor {p.get('minor'):>2}  live {p.get('live_count'):>6}"
        )
    elif record.type == "result":
        body = (
            f"{p.get('reason')}  neighbors={len(p.get('neighbor_indices', []))} "
            f"majors={p.get('major_iterations')} views={p.get('total_views')} "
            f"accepted={p.get('accepted_views')}"
        )
    else:  # pragma: no cover - future record types
        body = "(unknown record type)"
    ctx = p.get("ctx")
    if isinstance(ctx, dict) and ctx.get("request_id"):
        # Correlation handle stamped by the session service: joins this
        # record to the HTTP request (access-log line, span, envelope)
        # that caused it.
        body += f"  req={ctx['request_id']}"
    return f"{head} {body}"


def inspect_journal(path: str | Path) -> str:
    """Validate a journal and render its timeline + summary stats."""
    path = Path(path)
    records = read_journal(path)
    summary = journal_summary(records)
    t0 = records[0].ts
    lines = [f"journal {path} — {summary['records']} records, chain OK"]
    lines.extend(_timeline_line(record, t0) for record in records)
    lines.append("summary:")
    lines.append(f"  dataset:     {summary['dataset']}")
    lines.append(
        f"  views:       {summary['views']} "
        f"({summary['accepted']}/{summary['decisions']} decisions accepted)"
    )
    lines.append(
        f"  checkpoints: {summary['checkpoints']} "
        f"(resumes: {summary['resumes']})"
    )
    finished = (
        f"yes ({summary['reason']})" if summary["finished"] else "no"
    )
    lines.append(f"  finished:    {finished}")
    lines.append(f"  wall time:   {summary['wall_seconds']:.2f}s")
    return "\n".join(lines)
