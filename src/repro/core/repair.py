"""Self-healing datasets: turn a :class:`~repro.core.scrub.ScrubReport` into
an executed repair.

Every v3 data file carries its own ``spatial.meta`` record, manifest entry,
dtype descr and LOD parameters
(:class:`~repro.format.datafile.RecoveryTrailer`); this module is the
consumer of that redundancy.  The plan is a pure function of the scrub's
:class:`~repro.core.scrub.Survey` and issues — no I/O — dispatching on the
fix each issue's row of the rule table (:data:`~repro.core.scrub.ISSUES`)
names: lossless rebuilds of the table, manifest, entries and trailers
(bit-identical to what the writer produced), salvage of a torn file to its
longest prefix verifying against the per-LOD prefix checksums (a valid
coarse level, so strict reads keep working), and quarantine of the rest
into ``quarantine/`` — moved, never deleted.  A lost or quarantined file
the table or the manifest names is billed its committed particle count; a
file nothing names, nothing.

The plan runs through the writer's machinery (two-phase commit,
:class:`~repro.io.retry.RetryPolicy`, per-file fan-out on the dataset's
:class:`~repro.io.executor.IoExecutor`), recording ``repair.*`` spans, one
``repair.action`` event per executed action and salvaged/lost particle
counters.  ``dry_run=True`` stops after planning: no byte is written.

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
    FIXES,
    ISSUES,
    QUARANTINE_DIR,
    ScrubIssue,
    ScrubReport,
    Survey,
    natural_key,
    walk_files,
    want_trailer,
)
from repro.dataset import Dataset, as_dataset
from repro.errors import BackendError, FormatError, MetadataError
from repro.format.datafile import RecoveryTrailer, rebuild_image
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
#: The kinds that move or rewrite one data file, fanned out on the executor;
#: every other kind is a write of dataset state, which lands after them.
FILE_ACTIONS = frozenset({ACTION_QUARANTINE, ACTION_TRUNCATE, ACTION_REWRITE_TRAILER})


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
    #: The rule-table fix (:data:`~repro.core.scrub.FIXES`) that planned it.
    fix: str = ""

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
        return self.clean or not (self.dry_run or self.unresolved or self.issues_remaining)

    @property
    def exit_code(self) -> int:
        """The CLI contract: 0 clean/lossless repair, 1 damage (found, left
        unresolved or repaired with data loss), 2 never (operational errors
        raise)."""
        return int(not self.ok or self.data_loss)

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
    #: The table and manifest to write (None: what is on disk stands).
    meta_blob: bytes | None = None
    manifest: Manifest | None = None
    #: stray chain state deleted outright (dropped gen manifests/meta,
    #: residue meta without a manifest, stray CURRENT on a gen-0 dataset).
    delete_paths: list[str] = field(default_factory=list)
    #: path -> the fresh trailer of a truncation (its record counts the
    #: salvaged prefix) or a trailer rewrite (the whole payload).
    rewrite: dict[str, RecoveryTrailer] = field(default_factory=dict)


def _plan(sv: Survey, issues: list[ScrubIssue]) -> _RepairPlan:
    """Decide every action from the scrub's survey and issues; no I/O.

    Each data file gets the strongest of the fixes its issues' rows name,
    billed the particles committed for it.  A file no fix removes keeps the
    record :meth:`Survey.placed` gives it and the entry its payload
    rebuilds (equal to the committed one unless scrub said otherwise); the
    table and manifest are rewritten where what is kept differs from them.
    Dataset-level rows drop generations, delete residue and mend ``CURRENT``.
    """
    target = sv.target
    if sv.facts is None:
        return _RepairPlan(target, unresolved=[sv.unsettled])
    plan = _RepairPlan(target)
    facts, manifest = sv.facts, sv.manifest
    rows: dict[str, dict[str, ScrubIssue]] = {}
    for issue in issues:
        rows.setdefault(issue.path, {}).setdefault(ISSUES[issue.code].fix, issue)
    records: list[MetadataRecord] = []
    checksums: dict[str, dict] = {}
    adopted = 0

    def add(fix: str, kind: str, path: str, detail: str, salvaged: int = 0, lost: int = 0):
        plan.actions.append(RepairAction(kind, path, detail, salvaged, lost, fix=fix))

    def keep(record: MetadataRecord, entry: dict | None) -> None:
        records.append(record)
        if entry is not None:
            checksums[record.file_path] = entry

    for path, st in sv.files.items():
        fixes = rows.get(path, {})
        fix = next((f for f in FIXES if f in fixes), "")
        ref, lost = sv.records.get(path), sv.committed(path) or 0
        record = sv.placed(st) if st.entry is not None else None
        if fix == "leave-unresolved":
            plan.unresolved.append(f"{path}: unreadable ({st.detail})")
            if ref is not None:
                keep(ref, manifest.checksums.get(path) if manifest is not None else None)
        elif fix == "drop-record":
            detail = "referenced data file is gone; dropping its record"
            add(fix, ACTION_DROP_MISSING, path, detail, lost=lost)
        elif fix == "salvage" and st.salvage is not None and ref is not None:
            count, entry, section = st.salvage
            cut = replace(ref, particle_count=count, section=section)
            plan.rewrite[path] = want_trailer(cut, entry, facts)
            keep(cut, entry)
            detail = f"{st.detail}; keeping the longest checksum-verified LOD prefix"
            add(fix, ACTION_TRUNCATE, path, detail, salvaged=count, lost=ref.particle_count - count)
        elif fix in ("quarantine", "salvage") or fix == "adopt-trailer-record" and record is None:
            # A damaged file's own verdict says why; a valid one's placement.
            detail = st.detail or fixes[fix].detail
            if st.code and ISSUES[st.code].fix == "salvage":
                detail += "; no prefix verifies" if ref is not None else "; no record"
            add(fix, ACTION_QUARANTINE, path, detail, lost=lost)
        else:
            assert record is not None  # a file no row removes is placed
            # A file scrub passed keeps its committed record (a legacy table's
            # has no chunk index) unless the manifest is rebuilt from scratch.
            if fixes or manifest is None or record is not ref:
                record = replace(record, section=st.section)
            adopted += ref is None
            if fix == "adopt-trailer-record":
                add(
                    fix,
                    ACTION_REBUILD_ENTRY,
                    path,
                    f"spatial.meta says {ref.particle_count} particles, file "
                    f"holds {st.header_count}; trusting the file's trailer",
                )
            elif manifest is not None and "entry" in fixes:
                add(
                    "entry",
                    ACTION_REBUILD_ENTRY,
                    path,
                    "manifest checksum entry disagrees with the data file; "
                    "recomputed from the payload",
                )
            keep(record, st.entry)
            if "trailer" in fixes:
                plan.rewrite[path] = want_trailer(record, st.entry, facts)
                detail = st.trailer_detail or "recovery trailer disagrees with committed state"
                add("trailer", ACTION_REWRITE_TRAILER, path, detail)

    # -- the table and manifest the kept files commit to --------------------
    try:
        table = SpatialMetadata(
            sorted(records, key=lambda r: r.box_id), attr_names=facts.attr_names
        )
    except MetadataError as exc:
        # Refuse to act on a plan whose end state would not even validate
        # (e.g. two adopted trailers claiming the same box) — report instead.
        inconsistent = f"rebuilt table is inconsistent: {exc}"
        return _RepairPlan(target, unresolved=[*plan.unresolved, inconsistent])
    blob = table.to_bytes()
    if sv.metadata is not None and (sv.metadata.attr_names, sv.metadata.records) == (
        table.attr_names, table.records
    ):
        # The table on disk already holds this, maybe in an earlier version
        # that still reads: its bytes stay.
        blob = sv.raw_meta
    rebuilt = Manifest(
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
        spatial_meta_crc32=table_crc32(blob),
        generation=target.generation,
        parent=(
            manifest.parent
            if manifest is not None and manifest.generation == target.generation
            else (target.generation - 1 if target.generation > 0 else None)
        ),
    )
    writes = []
    if blob != sv.raw_meta:
        plan.meta_blob = blob
        detail = f"{len(table)} records"
        if adopted:
            detail += f" ({adopted} adopted from recovery trailers)"
        writes.append((ACTION_REBUILD_METADATA, target.meta_path, detail))
    if manifest is None or rebuilt.to_json() != manifest.to_json():
        plan.manifest = rebuilt
        detail = "committed state rewritten from repaired files"
        if manifest is None:
            detail = "committed state rebuilt from recovery trailers"
        writes.append((ACTION_REBUILD_MANIFEST, target.manifest_path, detail))
    plan.actions[:0] = [RepairAction(*write, fix="rebuild") for write in writes]

    # -- chain hygiene: drops, residue, and the CURRENT pointer -------------
    for gen in sorted(sv.dropped):
        plan.delete_paths += [generation_manifest_path(gen), generation_meta_path(gen)]
        detail = f"generation {gen} {sv.dropped[gen]}"
        add("drop-generation", ACTION_DROP_GENERATION, generation_manifest_path(gen), detail)
        for path in sv.stray:
            if path.startswith(f"data/g{gen}_"):
                detail = f"belongs to dropped generation {gen}"
                add("drop-generation", ACTION_QUARANTINE, path, detail)
    for issue in issues:
        if ISSUES[issue.code].fix == "delete":
            plan.delete_paths.append(issue.path)
            detail = "spatial table without its manifest (aborted commit residue)"
            add("delete", ACTION_DROP_GENERATION, issue.path, detail)
    pointer = "pointer" if any(ISSUES[i.code].fix == "pointer" for i in issues) else ""
    if target.generation > 0:
        if pointer:
            detail = f"pointer rewritten to committed generation {target.generation}"
            add(pointer, ACTION_REWRITE_CURRENT, CURRENT_PATH, detail)
    elif sv.has_current and (pointer or sv.dropped):
        plan.delete_paths.append(CURRENT_PATH)
        detail = "stray pointer removed (classic single-manifest dataset)"
        add(pointer or "drop-generation", ACTION_REWRITE_CURRENT, CURRENT_PATH, detail)
    return plan


# -- execution -----------------------------------------------------------------


def _write(ds: Dataset, path: str, blob: bytes, rec: Recorder) -> None:
    ds.retry.call(ds.backend.write_file, path, blob, actor=ds.actor, recorder=rec)


def _quarantine_path(ds: Dataset, path: str, rec: Recorder) -> None:
    """Move ``path`` under ``quarantine/`` (copy + delete; backends have no
    rename primitive, and a copy keeps the evidence even if the delete
    fails)."""
    raw = ds.retry.call(ds.backend.read_file, path, recorder=rec)
    _write(ds, f"{QUARANTINE_DIR}/{path}", bytes(raw), rec)
    ds.retry.call(ds.backend.delete, path, recorder=rec)


def _execute(ds: Dataset, plan: _RepairPlan, report: RepairReport) -> None:
    """Run the plan under the writer's two-phase discipline: invalidate the
    commit marker, fix the data files (fanned on the executor), then write
    ``spatial.meta``, then ``manifest.json``, then the ``CURRENT`` flip."""
    rec, gen = ds.recorder, plan.target.generation
    # A changing commit's marker goes first; stray chain state next, each
    # dropped generation's manifest before its table (deleting the manifest
    # un-commits it; a crash mid-drop leaves residue scrub recognises).
    deletes = list(plan.delete_paths)
    if plan.manifest is not None or gen > 0 and plan.meta_blob is not None:
        deletes.insert(0, MANIFEST_PATH if gen == 0 else CURRENT_PATH)
    for path in deletes:
        ds.retry.call(ds.backend.delete, path, missing_ok=True, recorder=rec)

    def apply(action: RepairAction, child: Recorder) -> None:
        if action.kind == ACTION_QUARANTINE:
            _quarantine_path(ds, action.path, child)
        else:  # truncate or rewrite the trailer: one rebuilt image
            raw = ds.retry.call(ds.backend.read_file, action.path, recorder=child)
            image = rebuild_image(raw, action.path, plan.rewrite[action.path])
            _write(ds, action.path, image, child)

    file_actions = [a for a in plan.actions if a.kind in FILE_ACTIONS]
    tasks = [(lambda child, a=action: apply(a, child)) for action in file_actions]
    for outcome in ds.executor.run(tasks, rec):
        if outcome.recorder is not None:
            rec.merge(outcome.recorder)
        action = file_actions[outcome.index]
        if outcome.error is not None:
            report.unresolved.append(f"{action.path}: {action.kind} failed: {outcome.error}")
        action.executed = outcome.error is None

    if plan.meta_blob is not None:
        _write(ds, plan.target.meta_path, plan.meta_blob, rec)
    if plan.manifest is not None:
        _write(ds, plan.target.manifest_path, plan.manifest.to_json().encode("utf-8"), rec)
    if gen > 0 and plan.actions:
        # A chained dataset's repair ends in its own commit flip: everything
        # above is now the committed state the pointer names.  A refused
        # plan has no action, so it writes nothing.
        ds.retry.call(write_current, ds.backend, gen, actor=ds.actor, recorder=rec)
    for action in plan.actions:
        action.executed = action.executed or action.kind not in FILE_ACTIONS
        if action.executed:
            _note(rec, action)


def _note(rec: Recorder, action: RepairAction) -> None:
    """Count and trace one executed action."""
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
    out.clean = report.ok
    if out.clean:
        return out

    assert report.survey is not None  # every scrub report carries one
    with ds.recorder.span(PHASE_REPAIR_PLAN, cat="repair"):
        plan = _plan(report.survey, report.issues)
    out.actions = plan.actions
    out.unresolved.extend(plan.unresolved)
    out.rebuilt_metadata = plan.meta_blob is not None
    out.rebuilt_manifest = plan.manifest is not None
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
        return not self.quarantined_steps and not self.unresolved and all(
            r.clean for _s, r in self.steps
        )

    @property
    def ok(self) -> bool:
        return not self.unresolved and all(r.ok for _s, r in self.steps)

    @property
    def exit_code(self) -> int:
        """Each step's :attr:`RepairReport.exit_code`, and 1 for damage above
        the steps: an unusable index, or an aborted append swept aside."""
        return max(
            [int(bool(self.unresolved or self.quarantined_steps))]
            + [r.exit_code for _s, r in self.steps]
        )

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
    from repro.series.reader import SeriesReader

    root = as_dataset(source)
    out = SeriesRepairReport(dry_run=dry_run)
    try:
        series = SeriesReader(
            root.backend, root.actor, root.strict, root.retry, root.recorder, root.executor
        )
    except FormatError as exc:
        out.unresolved.append(
            f"series index unusable ({exc}); step times are recorded nowhere "
            "else, so the index cannot be rebuilt"
        )
        return out
    for info in series.steps:
        step_ds = series.open_dataset(info.step)
        out.steps.append((info.step, repair_dataset(step_ds, dry_run=dry_run)))
    indexed = {info.prefix for info in series.steps}
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
        files = walk_files(root.backend, name)
        if not files:
            continue
        out.quarantined_steps.append(name)
        if dry_run:
            continue
        for path in files:
            _quarantine_path(root, path, root.recorder)
            _note(root.recorder, RepairAction(ACTION_QUARANTINE, path, "aborted append"))
    return out
