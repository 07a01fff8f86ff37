"""Self-healing datasets: turn a :class:`~repro.core.scrub.ScrubReport` into
an executed repair.

The v3 data-file format makes every file self-describing (see
:class:`~repro.format.datafile.RecoveryTrailer`): each one redundantly
carries its own ``spatial.meta`` record, manifest checksum entry, dtype
descr and LOD parameters.  This module is the consumer of that redundancy —
given a scrubbed dataset it classifies every issue into a typed
:class:`RepairAction` and executes the plan through the same machinery the
writer uses (two-phase commit, :class:`~repro.io.retry.RetryPolicy`,
per-file fan-out on the dataset's :class:`~repro.io.executor.IoExecutor`).

Planning is a pure function of the scrub's :class:`~repro.core.scrub.Survey`
(target generation, surviving manifest and table, dataset-wide facts, and
one :func:`~repro.core.scrub.inspect_file` state per inventory file) and
its issues: it does no I/O.  The issue table
(:data:`~repro.core.scrub.ISSUES`) says what each issue asks for:

* **lossless rebuild** (repairable codes) — ``spatial.meta`` and
  ``manifest.json`` are derived state; when lost, corrupt, or disagreeing
  with the data files they are rebuilt from the recovery trailers (the
  rebuild is bit-identical to what the writer produced, so a surviving
  manifest's ``spatial_meta_crc32`` still matches; a healthy table of an
  earlier version keeps its bytes).  A damaged trailer is
  rewritten to :func:`~repro.core.scrub.want_trailer`, the one scrub
  compares against.
* **salvage** — a torn data file is truncated to its longest prefix that
  still verifies against the manifest's per-LOD prefix checksums; because
  files are LOD-ordered, that prefix *is* a valid coarse level, so strict
  reads keep working at reduced fidelity.
* **quarantine** — anything unrecoverable (bad payload CRC, dtype mismatch,
  torn beyond the first prefix boundary, orphans of an aborted overwrite)
  is moved into ``quarantine/`` rather than deleted, and dropped from the
  rebuilt metadata.

A lost or quarantined file the table or the manifest names is billed its
committed particle count; a file nothing names is billed nothing.

Every repair records ``repair.*`` spans (scrub / plan / execute / verify),
one ``repair.action`` event per executed action, and salvaged/lost
particle counters on the dataset's recorder.  ``dry_run=True`` stops after
planning — no byte is written (asserted in the test suite against the
virtual backend's op log).

Series-level recovery (:func:`repair_series`) treats ``series.json`` as the
commit marker above the per-step markers: indexed steps are repaired in
place; a step directory absent from the index is an aborted append and is
quarantined whole.  The index itself carries the simulation times, which no
trailer duplicates, so a corrupt index is reported as unresolved rather
than guessed at.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from repro.core.scrub import (
    ISSUES,
    QUARANTINE_DIR,
    ScrubIssue,
    ScrubReport,
    Survey,
    natural_key,
    want_trailer,
)
from repro.dataset import Dataset, as_dataset
from repro.errors import BackendError, FormatError, MetadataError
from repro.format.chunks import FileChunkIndex
from repro.format.datafile import (
    DATA_VERSION_COLUMNAR,
    HEADER_BYTES,
    RecoveryTrailer,
    build_data_blob,
    columnar_payload_length,
)
from repro.format.generations import (
    CURRENT_PATH,
    ResolvedGeneration,
    generation_manifest_path,
    generation_meta_path,
    write_current,
)
from repro.format.manifest import MANIFEST_PATH, Manifest
from repro.format.metadata import MetadataRecord, SpatialMetadata, table_crc32
from repro.io.backend import FileBackend
from repro.obs.names import (
    EV_REPAIR_ACTION,
    PHASE_REPAIR_EXECUTE,
    PHASE_REPAIR_PLAN,
    PHASE_REPAIR_SCRUB,
    PHASE_REPAIR_VERIFY,
    REPAIR_ACTIONS,
    REPAIR_FILES_QUARANTINED,
    REPAIR_PARTICLES_LOST,
    REPAIR_PARTICLES_SALVAGED,
)
from repro.obs.recorder import Recorder

__all__ = [
    "QUARANTINE_DIR",
    "RepairAction",
    "RepairReport",
    "SeriesRepairReport",
    "repair_dataset",
    "repair_series",
]

#: Unrecoverable pieces are moved to ``QUARANTINE_DIR`` (defined in
#: :mod:`repro.core.scrub`, re-exported here), never deleted — a later
#: forensic pass can still look at them.

#: Action kinds, in the order :meth:`RepairReport.summary_lines` groups them.
ACTION_REBUILD_METADATA = "rebuild-metadata-from-trailers"
ACTION_REBUILD_MANIFEST = "rebuild-manifest"
ACTION_REBUILD_ENTRY = "rebuild-manifest-entry"
ACTION_REWRITE_TRAILER = "rewrite-trailer"
ACTION_TRUNCATE = "truncate-torn-file"
ACTION_DROP_MISSING = "drop-missing-file"
ACTION_QUARANTINE = "quarantine-unrecoverable"
ACTION_REWRITE_CURRENT = "rewrite-current-pointer"
ACTION_DROP_GENERATION = "drop-generation"


@dataclass
class RepairAction:
    """One planned (and possibly executed) repair step."""

    kind: str
    path: str
    detail: str
    particles_salvaged: int = 0
    particles_lost: int = 0
    #: False until the execute phase actually performed it (always False
    #: after a dry run).
    executed: bool = False

    def describe(self) -> str:
        extra = ""
        if self.particles_salvaged or self.particles_lost:
            extra = (
                f" (salvaged {self.particles_salvaged}, "
                f"lost {self.particles_lost})"
            )
        return f"[{self.kind}] {self.path}: {self.detail}{extra}"


@dataclass
class RepairReport:
    """Everything one repair pass decided and did."""

    actions: list[RepairAction] = field(default_factory=list)
    dry_run: bool = False
    #: The scrub found nothing; repair had nothing to do.
    clean: bool = False
    rebuilt_metadata: bool = False
    rebuilt_manifest: bool = False
    #: Damage repair could not act on (human-readable reasons).
    unresolved: list[str] = field(default_factory=list)
    #: Issues the post-repair verification scrub still found.
    issues_remaining: list[str] = field(default_factory=list)

    @property
    def particles_salvaged(self) -> int:
        return sum(a.particles_salvaged for a in self.actions)

    @property
    def particles_lost(self) -> int:
        return sum(a.particles_lost for a in self.actions)

    @property
    def files_quarantined(self) -> int:
        return sum(1 for a in self.actions if a.kind == ACTION_QUARANTINE)

    @property
    def data_loss(self) -> bool:
        """True when converging cost particles (quarantined orphans of an
        aborted overwrite were never committed data, so they do not count)."""
        return self.particles_lost > 0

    @property
    def ok(self) -> bool:
        """The dataset verifies clean after this pass (vacuously for a
        dataset that was already clean)."""
        if self.clean:
            return True
        return not self.dry_run and not self.unresolved and not self.issues_remaining

    @property
    def exit_code(self) -> int:
        """The CLI contract: 0 clean/lossless repair, 1 damage (found or
        repaired with data loss), 2 never (operational errors raise)."""
        if self.clean:
            return 0
        if self.dry_run:
            return 1
        return 0 if self.ok and not self.data_loss else 1

    def summary_lines(self) -> list[str]:
        """Human-readable report (the ``repro repair`` output body)."""
        verb = "planned " if self.dry_run else "executed"
        lines = [f"actions {verb} : {len(self.actions)}"]
        lines.extend(f"  {a.describe()}" for a in self.actions)
        lines += [
            f"particles salvaged: {self.particles_salvaged}",
            f"particles lost    : {self.particles_lost}",
            f"files quarantined : {self.files_quarantined}",
            f"metadata rebuilt  : {'yes' if self.rebuilt_metadata else 'no'}",
            f"manifest rebuilt  : {'yes' if self.rebuilt_manifest else 'no'}",
        ]
        lines.extend(f"unresolved: {reason}" for reason in self.unresolved)
        lines.extend(f"still damaged: {issue}" for issue in self.issues_remaining)
        if self.clean:
            lines.append("dataset is clean; nothing to repair")
        elif self.dry_run:
            lines.append("dry run: no changes were made")
        elif not self.ok:
            lines.append("repair incomplete: restore from a replica")
        elif self.data_loss:
            lines.append(
                f"dataset repaired with data loss "
                f"({self.particles_lost} particles unrecoverable)"
            )
        else:
            lines.append("dataset repaired without data loss")
        return lines


# -- planning ------------------------------------------------------------------


@dataclass
class _RepairPlan:
    """What the execute phase will do, fully decided before any write."""

    #: the generation this repair converges the dataset to; decides which
    #: manifest/meta paths are rewritten and what the commit marker is.
    target: ResolvedGeneration
    actions: list[RepairAction] = field(default_factory=list)
    unresolved: list[str] = field(default_factory=list)
    rebuild_metadata: bool = False
    rebuild_manifest: bool = False
    invalidate_marker: bool = False
    meta_blob: bytes | None = None
    manifest: Manifest | None = None
    #: rewrite CURRENT to this generation after everything else landed
    #: (None = classic single-manifest dataset, no pointer).
    write_current_gen: int | None = None
    #: stray chain state deleted outright (dropped gen manifests/meta,
    #: residue meta without a manifest, stray CURRENT on a gen-0 dataset).
    delete_paths: list[str] = field(default_factory=list)
    #: path -> (records kept, rec_size, fresh trailer) for truncations
    #: (the salvaged prefix) and trailer rewrites (the whole payload).
    rewrite: dict[str, tuple[int, int, RecoveryTrailer]] = field(default_factory=dict)


def _plan(sv: Survey, issues: list[ScrubIssue]) -> _RepairPlan:
    """Decide every action from the scrub's survey and issues; no I/O.

    Each file is decided from its one inspection: missing, corrupt or torn
    files are dropped, salvage-truncated or quarantined, each billed the
    particles committed for it (nothing, when nothing named it); a valid
    file keeps the record :meth:`Survey.placed` gives it — the table's, or
    its trailer's when the table is lost or miscounts it — with the entry
    recomputed from its payload, unless scrub passed the file as committed.
    The issue table says what else the scrub's issues ask for: a rebuilt
    manifest entry, a rewritten trailer, a dropped generation, a rewritten
    ``CURRENT`` pointer.
    """
    plan = _RepairPlan(target=sv.target)
    target = sv.target
    if sv.facts is None:
        plan.unresolved.append(sv.unsettled)
        return plan
    facts, manifest = sv.facts, sv.manifest
    fixes: dict[str, set[str]] = {}
    details: dict[str, str] = {}
    for issue in issues:
        fixes.setdefault(issue.path, set()).add(ISSUES[issue.code].fix)
        details.setdefault(issue.path, issue.detail)

    records: list[MetadataRecord] = []
    checksums: dict[str, dict] = {}
    adopted = 0

    def add(kind: str, path: str, detail: str, salvaged: int = 0, lost: int = 0):
        plan.actions.append(RepairAction(kind, path, detail, salvaged, lost))

    def keep(record: MetadataRecord, entry: dict | None) -> None:
        # The section goes back into the record; the manifest entry keeps
        # the file-level checksums and codec only.
        if entry is not None:
            entry = dict(entry)
            record = replace(record, section=entry.pop("section", b""))
            checksums[record.file_path] = entry
        records.append(record)

    for path, st in sv.files.items():
        ref = sv.records.get(path)
        committed = sv.committed(path) or 0

        if st.status == "missing":
            add(
                ACTION_DROP_MISSING,
                path,
                "referenced data file is gone; dropping its record",
                lost=committed,
            )
            continue

        if st.status == "unreadable":
            # Cannot even copy it aside; leave it in place and report.
            plan.unresolved.append(f"{path}: unreadable ({st.detail})")
            if ref is not None:
                keep(ref, sv.entry(path))
            continue

        if st.status == "corrupt":
            add(ACTION_QUARANTINE, path, st.detail, lost=committed)
            continue

        if st.status == "torn":
            if ref is not None and st.salvage_count > 0:
                cut = replace(ref, particle_count=st.salvage_count, section=b"")
                entry = {
                    "payload_crc32": st.salvage_crc,
                    "prefixes": list(st.salvage_prefixes),
                }
                if st.codec is not None:
                    # v4 salvage keeps whole chunks: the truncated file's
                    # entry carries the surviving segment descriptors and
                    # the codec, so it stays a self-describing columnar
                    # file at reduced fidelity.
                    entry["section"] = st.keep_section
                    entry["codec"] = st.codec
                plan.rewrite[path] = (
                    st.salvage_count, st.rec_size, want_trailer(cut, entry, facts)
                )
                keep(cut, entry)
                add(
                    ACTION_TRUNCATE,
                    path,
                    f"{st.detail}; keeping the longest checksum-verified "
                    f"LOD prefix",
                    salvaged=st.salvage_count,
                    lost=ref.particle_count - st.salvage_count,
                )
            else:
                add(
                    ACTION_QUARANTINE,
                    path,
                    st.detail
                    + ("; no prefix verifies" if ref is not None else "; no record"),
                    lost=committed,
                )
            continue

        # -- structurally valid file ---------------------------------------
        record = sv.placed(st)
        if record is None:
            add(ACTION_QUARANTINE, path, details[path], lost=committed)
            continue
        entry = st.actual_entry
        if record is ref and path not in fixes:
            # Scrub passed the file: its committed record and entry stand.
            entry = sv.entry(path) or entry
        assert entry is not None  # every valid file has one
        adopted += ref is None
        if ref is not None and record is not ref:
            add(
                ACTION_REBUILD_ENTRY,
                path,
                f"spatial.meta says {ref.particle_count} particles, file "
                f"holds {st.header_count}; trusting the file's trailer",
            )
        elif manifest is not None and path not in manifest.checksums:
            add(ACTION_REBUILD_ENTRY, path, "manifest entry missing; recomputed from the payload")
        # With the table lost, the entry's chunk section is re-derived from
        # the payload too.
        elif manifest is not None and (
            "entry" in fixes.get(path, ()) or ref is None and "section" in entry
        ):
            add(
                ACTION_REBUILD_ENTRY,
                path,
                "manifest checksum entry disagrees with the data file; "
                "recomputed from the payload",
            )
        keep(record, entry)
        if "trailer" in fixes.get(path, ()):
            plan.rewrite[path] = (st.header_count, st.rec_size, want_trailer(record, entry, facts))
            add(
                ACTION_REWRITE_TRAILER,
                path,
                st.trailer_detail or "recovery trailer disagrees with committed state",
            )

    # -- assemble the target dataset-level state ---------------------------
    try:
        table = SpatialMetadata(
            sorted(records, key=lambda r: r.box_id),
            attr_names=facts.attr_names,
        )
    except MetadataError as exc:
        # Refuse to act on a plan whose end state would not even validate
        # (e.g. two adopted trailers claiming the same box) — report instead.
        plan.unresolved.append(f"rebuilt table is inconsistent: {exc}")
        plan.actions = []
        plan.rewrite.clear()
        return plan
    plan.meta_blob = table.to_bytes()
    if sv.metadata is not None and (sv.metadata.attr_names, sv.metadata.records) == (
        table.attr_names, table.records
    ):
        # The table on disk already holds this, maybe in an earlier version
        # that still reads: its bytes stay.
        plan.meta_blob = sv.raw_meta
    plan.rebuild_metadata = plan.meta_blob != sv.raw_meta
    if plan.rebuild_metadata:
        detail = f"{len(table)} records"
        if adopted:
            detail += f" ({adopted} adopted from recovery trailers)"
        plan.actions.insert(
            0, RepairAction(ACTION_REBUILD_METADATA, target.meta_path, detail)
        )

    new_manifest = Manifest(
        dtype=facts.dtype,
        num_files=len(table),
        total_particles=table.total_particles,
        lod_base=facts.lod_base,
        lod_scale=facts.lod_scale,
        lod_heuristic=facts.lod_heuristic,
        lod_seed=facts.lod_seed,
        writer=(
            manifest.writer
            if manifest is not None
            else {"provenance": "rebuilt by repro repair"}
        ),
        checksums={p: checksums[p] for p in sorted(checksums, key=natural_key)},
        spatial_meta_crc32=table_crc32(plan.meta_blob),
        generation=target.generation,
        parent=(
            manifest.parent
            if manifest is not None and manifest.generation == target.generation
            else (target.generation - 1 if target.generation > 0 else None)
        ),
    )
    plan.manifest = new_manifest
    plan.rebuild_manifest = (
        manifest is None or new_manifest.to_json() != manifest.to_json()
    )
    if plan.rebuild_manifest:
        plan.actions.insert(
            0 if not plan.rebuild_metadata else 1,
            RepairAction(
                ACTION_REBUILD_MANIFEST,
                target.manifest_path,
                "committed state rewritten from repaired files"
                if manifest is not None
                else "committed state rebuilt from recovery trailers",
            ),
        )

    # -- chain hygiene: drops, residue, and the CURRENT pointer -------------
    for gen in sorted(sv.dropped):
        plan.delete_paths += [generation_manifest_path(gen), generation_meta_path(gen)]
        add(
            ACTION_DROP_GENERATION,
            generation_manifest_path(gen),
            f"generation {gen} {sv.dropped[gen]}",
        )
        for path in sv.stray:
            if path.startswith(f"data/g{gen}_"):
                add(ACTION_QUARANTINE, path, f"belongs to dropped generation {gen}")
    for issue in issues:
        if ISSUES[issue.code].fix == "delete":
            plan.delete_paths.append(issue.path)
            add(
                ACTION_DROP_GENERATION,
                issue.path,
                "spatial table without its manifest (aborted commit residue)",
            )
    current_damaged = any(ISSUES[i.code].fix == "pointer" for i in issues)
    if target.generation > 0:
        # Chained datasets always finish by (re)pointing CURRENT at the
        # converged generation — this is the repair's own commit flip.
        plan.write_current_gen = target.generation
        if current_damaged:
            add(
                ACTION_REWRITE_CURRENT,
                CURRENT_PATH,
                f"pointer rewritten to committed generation {target.generation}",
            )
    elif sv.has_current and (current_damaged or sv.dropped):
        plan.delete_paths.append(CURRENT_PATH)
        add(
            ACTION_REWRITE_CURRENT,
            CURRENT_PATH,
            "stray pointer removed (classic single-manifest dataset)",
        )

    # The commit marker goes first (deleting an absent one is a no-op).
    plan.invalidate_marker = plan.rebuild_manifest or (
        target.generation > 0 and plan.rebuild_metadata
    )
    return plan


# -- execution -----------------------------------------------------------------


def _quarantine_path(ds: Dataset, path: str, rec: Recorder) -> None:
    """Move ``path`` under ``quarantine/`` (copy + delete; backends have no
    rename primitive, and a copy keeps the evidence even if the delete
    fails)."""
    raw = ds.retry.call(ds.backend.read_file, path, recorder=rec)
    ds.retry.call(
        ds.backend.write_file,
        f"{QUARANTINE_DIR}/{path}",
        bytes(raw),
        actor=ds.actor,
        recorder=rec,
    )
    ds.retry.call(ds.backend.delete, path, recorder=rec)


def _rewrite_file(
    ds: Dataset,
    path: str,
    count: int,
    rec_size: int,
    trailer: RecoveryTrailer,
    rec: Recorder,
) -> None:
    """Rebuild a file image around the (verified) first ``count`` records —
    the truncate and rewrite-trailer primitive.  A trailer carrying a codec
    marks a columnar (v4) file: the kept payload length comes from its
    segment descriptors (encoded bytes, not ``count * rec_size``)."""
    raw = bytes(ds.retry.call(ds.backend.read_file, path, recorder=rec))
    if trailer.codec is not None:
        section = trailer.record.section
        enc_len = (
            columnar_payload_length(FileChunkIndex.unpack(section, path))
            if section else 0
        )
        payload = raw[HEADER_BYTES : HEADER_BYTES + enc_len]
        blob = build_data_blob(
            payload, rec_size, count, trailer, version=DATA_VERSION_COLUMNAR
        )
    else:
        payload = raw[HEADER_BYTES : HEADER_BYTES + count * rec_size]
        blob = build_data_blob(payload, rec_size, count, trailer)
    ds.retry.call(
        ds.backend.write_file, path, blob, actor=ds.actor, recorder=rec
    )


def _execute(ds: Dataset, plan: _RepairPlan, report: RepairReport) -> None:
    """Run the plan under the writer's two-phase discipline: invalidate the
    commit marker, fix the data files (fanned on the executor), then write
    ``spatial.meta``, then ``manifest.json`` last."""
    rec = ds.recorder
    if plan.invalidate_marker:
        marker = MANIFEST_PATH if plan.target.generation == 0 else CURRENT_PATH
        ds.retry.call(ds.backend.delete, marker, missing_ok=True, recorder=rec)

    # Stray chain state goes first, manifest-before-meta per dropped
    # generation (deleting the manifest un-commits it; a crash mid-drop
    # leaves residue the next scrub still recognises).
    for path in plan.delete_paths:
        ds.retry.call(ds.backend.delete, path, missing_ok=True, recorder=rec)

    file_actions = [
        a
        for a in plan.actions
        if a.kind in (ACTION_QUARANTINE, ACTION_TRUNCATE, ACTION_REWRITE_TRAILER)
    ]

    def apply(action: RepairAction, child: Recorder) -> RepairAction:
        if action.kind == ACTION_QUARANTINE:
            _quarantine_path(ds, action.path, child)
        else:
            _rewrite_file(ds, action.path, *plan.rewrite[action.path], child)
        return action

    tasks = [
        (lambda child, a=action: apply(a, child)) for action in file_actions
    ]
    for outcome in ds.executor.run(tasks, rec):
        if outcome.recorder is not None:
            rec.merge(outcome.recorder)
        action = file_actions[outcome.index]
        if outcome.error is not None:
            report.unresolved.append(f"{action.path}: {action.kind} failed: "
                                     f"{outcome.error}")
            continue
        action.executed = True

    if plan.rebuild_metadata:
        assert plan.meta_blob is not None
        ds.retry.call(
            ds.backend.write_file, plan.target.meta_path, plan.meta_blob,
            actor=ds.actor, recorder=rec,
        )
    if plan.rebuild_manifest:
        assert plan.manifest is not None
        ds.retry.call(
            ds.backend.write_file,
            plan.target.manifest_path,
            plan.manifest.to_json().encode("utf-8"),
            actor=ds.actor,
            recorder=rec,
        )
    if plan.write_current_gen is not None:
        # The repair's own commit flip: everything above is now the
        # committed state the pointer names.
        ds.retry.call(
            write_current, ds.backend, plan.write_current_gen,
            actor=ds.actor, recorder=rec,
        )
    for action in plan.actions:
        if action.kind in (
            ACTION_REBUILD_METADATA,
            ACTION_REBUILD_MANIFEST,
            ACTION_REBUILD_ENTRY,
            ACTION_DROP_MISSING,
            ACTION_DROP_GENERATION,
            ACTION_REWRITE_CURRENT,
        ):
            action.executed = True
    for action in plan.actions:
        if action.executed:
            rec.add(REPAIR_ACTIONS, 1, key=(action.kind,))
            rec.event(
                EV_REPAIR_ACTION,
                kind=action.kind,
                path=action.path,
                particles_salvaged=action.particles_salvaged,
                particles_lost=action.particles_lost,
            )


# -- entry points --------------------------------------------------------------


def repair_dataset(
    source: Dataset | FileBackend,
    report: ScrubReport | None = None,
    *,
    dry_run: bool = False,
) -> RepairReport:
    """Scrub (unless given a report), plan, execute, and verify one dataset.

    The plan comes from the report's survey alone, so planning reads
    nothing; the verification scrub catches any file that changed since.

    With ``dry_run=True`` the plan is returned unexecuted — no write, delete
    or quarantine happens.  Otherwise the plan runs under the dataset's
    retry policy and executor, and a verification scrub confirms the result
    (:attr:`RepairReport.issues_remaining`).
    """
    ds = as_dataset(source)
    out = RepairReport(dry_run=dry_run)

    if report is None:
        with ds.recorder.span(PHASE_REPAIR_SCRUB, cat="repair"):
            report = ds.scrub()
    if report.ok:
        out.clean = True
        return out

    assert report.survey is not None  # every scrub report carries one
    with ds.recorder.span(PHASE_REPAIR_PLAN, cat="repair"):
        plan = _plan(report.survey, report.issues)
    out.actions = plan.actions
    out.unresolved.extend(plan.unresolved)
    out.rebuilt_metadata = plan.rebuild_metadata
    out.rebuilt_manifest = plan.rebuild_manifest
    if dry_run:
        return out

    with ds.recorder.span(PHASE_REPAIR_EXECUTE, cat="repair"):
        _execute(ds, plan, out)
        ds.recorder.add(REPAIR_PARTICLES_SALVAGED, out.particles_salvaged)
        ds.recorder.add(REPAIR_PARTICLES_LOST, out.particles_lost)
        ds.recorder.add(REPAIR_FILES_QUARANTINED, out.files_quarantined)
    ds.invalidate_cache()

    with ds.recorder.span(PHASE_REPAIR_VERIFY, cat="repair"):
        verify = ds.scrub()
    out.issues_remaining = [
        f"{i.code} {i.path}: {i.detail}" for i in verify.issues
    ]
    return out


# -- series-level recovery -----------------------------------------------------


@dataclass
class SeriesRepairReport:
    """Aggregated outcome of repairing every timestep of a series."""

    dry_run: bool = False
    #: ``(step, per-step report)`` for every indexed timestep.
    steps: list = field(default_factory=list)
    #: Step directories quarantined whole (aborted appends, not in the index).
    quarantined_steps: list[str] = field(default_factory=list)
    unresolved: list[str] = field(default_factory=list)

    @property
    def particles_salvaged(self) -> int:
        return sum(r.particles_salvaged for _s, r in self.steps)

    @property
    def particles_lost(self) -> int:
        return sum(r.particles_lost for _s, r in self.steps)

    @property
    def clean(self) -> bool:
        return (
            not self.quarantined_steps
            and not self.unresolved
            and all(r.clean for _s, r in self.steps)
        )

    @property
    def ok(self) -> bool:
        return not self.unresolved and all(r.ok for _s, r in self.steps)

    @property
    def data_loss(self) -> bool:
        return any(r.data_loss for _s, r in self.steps)

    @property
    def exit_code(self) -> int:
        if self.clean:
            return 0
        if self.dry_run or not self.ok or self.data_loss:
            return 1
        # Repaired losslessly, but an aborted append was swept aside: that
        # is damage found, even though no committed step lost a particle.
        return 1 if self.quarantined_steps else 0

    def summary_lines(self) -> list[str]:
        lines = [f"indexed steps     : {len(self.steps)}"]
        for step, rep in self.steps:
            if rep.clean:
                lines.append(f"step {step:6d}       : clean")
                continue
            lines.append(f"step {step:6d}       :")
            lines.extend(f"  {line}" for line in rep.summary_lines())
        for prefix in self.quarantined_steps:
            lines.append(
                f"quarantined step  : {prefix} (aborted append, not in "
                "series.json)"
            )
        lines.extend(f"unresolved: {reason}" for reason in self.unresolved)
        if self.clean:
            lines.append("series is clean; nothing to repair")
        elif self.dry_run:
            lines.append("dry run: no changes were made")
        elif not self.ok:
            lines.append("series repair incomplete: restore from a replica")
        else:
            lines.append("series repaired")
        return lines


def repair_series(
    source: Dataset | FileBackend,
    *,
    dry_run: bool = False,
) -> SeriesRepairReport:
    """Repair every indexed timestep; quarantine un-indexed step directories.

    ``series.json`` is the series-level commit marker (rank 0 appends to it
    only after a step's own two-phase commit), so a ``t######`` directory
    absent from it is an aborted append: its contents are moved under
    ``quarantine/`` untouched.  The index also holds per-step simulation
    times that exist nowhere else, so a corrupt index is unresolved, not
    guessed.
    """
    from repro.io.prefix import PrefixBackend
    from repro.series.index import SeriesIndex

    root = as_dataset(source)
    out = SeriesRepairReport(dry_run=dry_run)

    index = None
    try:
        index = SeriesIndex.read(root.backend, actor=root.actor)
    except FormatError as exc:
        out.unresolved.append(
            f"series index unusable ({exc}); step times are recorded nowhere "
            "else, so the index cannot be rebuilt"
        )

    indexed: set[str] = set()
    if index is not None:
        for info in index:
            indexed.add(info.prefix)
            step_ds = Dataset(
                PrefixBackend(root.backend, info.prefix),
                actor=root.actor,
                strict=root.strict,
                retry=root.retry,
                recorder=root.recorder,
                executor=root.executor,
            )
            out.steps.append(
                (info.step, repair_dataset(step_ds, dry_run=dry_run))
            )

    if index is not None:
        try:
            names = root.backend.listdir("")
        except BackendError:
            names = []
        for name in sorted(names):
            if not re.fullmatch(r"t\d{6}", name) or name in indexed:
                continue
            # An empty un-indexed step directory is residue of a previous
            # quarantine (POSIX backends delete files but keep directories),
            # not fresh damage — skip it so repair stays idempotent.
            files = _step_files(root.backend, name)
            if not files:
                continue
            out.quarantined_steps.append(name)
            if dry_run:
                continue
            for path in files:
                _quarantine_path(root, path, root.recorder)
                root.recorder.add(REPAIR_ACTIONS, 1, key=(ACTION_QUARANTINE,))
                root.recorder.event(
                    EV_REPAIR_ACTION,
                    kind=ACTION_QUARANTINE,
                    path=path,
                    particles_salvaged=0,
                    particles_lost=0,
                )
    return out


def _step_files(backend: FileBackend, prefix: str) -> list[str]:
    """Every file under one step directory (the known dataset layout)."""
    out: list[str] = []
    try:
        names = backend.listdir(prefix)
    except BackendError:
        return out
    for name in sorted(names):
        if name == "data":
            try:
                subs = backend.listdir(f"{prefix}/data")
            except BackendError:
                subs = []
            out.extend(f"{prefix}/data/{n}" for n in sorted(subs))
        else:
            out.append(f"{prefix}/{name}")
    return out
