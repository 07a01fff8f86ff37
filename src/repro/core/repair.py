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

Planning settles the dataset-wide facts (dtype, LOD parameters, attribute
order, chunk size) once — from the manifest and table, else from the first
readable recovery trailer — then inspects each file once through the
scrubber's own :func:`~repro.core.scrub.inspect_file`, and rewrites a
trailer exactly when it differs from
:func:`~repro.core.scrub.want_trailer`, the comparison scrub makes.

Strategy per issue, keyed off :attr:`ScrubIssue.repairable`:

* **lossless rebuild** (``repairable=True``) — ``spatial.meta`` and
  ``manifest.json`` are derived state; when lost, corrupt, or disagreeing
  with the data files they are rebuilt from the recovery trailers (the
  rebuild is bit-identical to what the writer produced, so a surviving
  manifest's ``spatial_meta_crc32`` still matches).  A damaged trailer is
  itself rewritten from the surviving committed state.
* **salvage** (``repairable=False``) — a torn data file is truncated to its
  longest prefix that still verifies against the manifest's per-LOD prefix
  checksums; because files are LOD-ordered, that prefix *is* a valid coarse
  level, so strict reads keep working at reduced fidelity.
* **quarantine** — anything unrecoverable (bad payload CRC, dtype mismatch,
  torn beyond the first prefix boundary, orphans of an aborted overwrite)
  is moved into ``quarantine/`` rather than deleted, and dropped from the
  rebuilt metadata.

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
import zlib
from contextlib import suppress
from dataclasses import dataclass, field, replace

from repro.core.scrub import (
    QUARANTINE_DIR,
    FileState,
    ScrubReport,
    committed_entry,
    inspect_file,
    settle_facts,
    want_trailer,
)
from repro.dataset import Dataset, as_dataset
from repro.errors import BackendError, DataFileError, FormatError, MetadataError
from repro.format.chunks import FileChunkIndex
from repro.format.datafile import (
    DATA_VERSION_COLUMNAR,
    HEADER_BYTES,
    RecoveryTrailer,
    build_data_blob,
    columnar_payload_length,
    read_recovery_trailer,
)
from repro.format.generations import (
    CURRENT_PATH,
    ResolvedGeneration,
    generation_manifest_path,
    generation_meta_path,
    list_generations,
    load_generation,
    parse_generation_path,
    read_current,
    resolve_generation,
    write_current,
)
from repro.format.manifest import MANIFEST_PATH, Manifest
from repro.format.metadata import MetadataRecord, SpatialMetadata
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

    actions: list[RepairAction] = field(default_factory=list)
    unresolved: list[str] = field(default_factory=list)
    rebuild_metadata: bool = False
    rebuild_manifest: bool = False
    invalidate_marker: bool = False
    meta_blob: bytes | None = None
    manifest: Manifest | None = None
    #: the generation this repair converges the dataset to; decides which
    #: manifest/meta paths are rewritten and what the commit marker is.
    target: ResolvedGeneration = field(
        default_factory=lambda: ResolvedGeneration(0)
    )
    #: rewrite CURRENT to this generation after everything else landed
    #: (None = classic single-manifest dataset, no pointer).
    write_current_gen: int | None = None
    #: dropped generation -> its unique data files (quarantined, never
    #: shared with a retained generation).
    drop_files: dict[int, list[str]] = field(default_factory=dict)
    #: stray chain state deleted outright (dropped gen manifests/meta,
    #: residue meta without a manifest, stray CURRENT on a gen-0 dataset).
    delete_paths: list[str] = field(default_factory=list)
    #: path -> (records kept, rec_size, fresh trailer) for truncations
    #: (the salvaged prefix) and trailer rewrites (the whole payload).
    rewrite: dict[str, tuple[int, int, RecoveryTrailer]] = field(default_factory=dict)


def _norm_entry(entry: dict | None) -> dict | None:
    if entry is None:
        return None
    out = {
        "payload_crc32": int(entry.get("payload_crc32", -1)),
        "prefixes": [[int(c), int(crc)] for c, crc in entry.get("prefixes", [])],
    }
    if entry.get("section"):
        out["section"] = entry["section"]
    if entry.get("codec") is not None:
        out["codec"] = str(entry["codec"])
    return out


def _donor_trailer(ds: Dataset, paths: list[str]) -> RecoveryTrailer | None:
    """The first recovery trailer among ``paths`` that reads and checksums
    (ranged reads of the file's tail only): where dataset-wide facts come
    from when the manifest or the table is lost."""
    for path in paths:
        with suppress(BackendError, DataFileError):
            return ds.retry.call(
                read_recovery_trailer, ds.backend, path, recorder=ds.recorder
            )
    return None


def _natural_key(path: str) -> tuple:
    return tuple(
        int(part) if part.isdigit() else part
        for part in re.split(r"(\d+)", path)
    )


def _plan(ds: Dataset, report: ScrubReport) -> _RepairPlan:
    """Decide every action from surviving state; performs reads only.

    The scrub report drives the plan twice over: its issue list scopes the
    per-file inspection (when the dataset-level state survived intact, only
    files the scrub flagged are re-read — a clean file's record and
    checksum entry carry over untouched), and its ``repairable`` tags pick
    the strategy — tagged issues resolve through lossless rebuilds from
    trailers or committed state, untagged ones through salvage truncation
    or quarantine.  Every decision is still re-verified against the actual
    bytes here — the plan trusts what it inspected, not what the scrub
    remembered.
    """
    plan = _RepairPlan()
    backend = ds.backend

    # Which generation does this repair converge to?  The resolver's own
    # discipline picks it (valid CURRENT first, else the newest fully
    # verifiable generation); when nothing verifies at all, fall back to
    # the newest generation present and rebuild it from trailers.
    try:
        target = resolve_generation(backend, actor=ds.actor)
    except FormatError:
        target = ResolvedGeneration(
            max(list_generations(backend), default=0),
            fallback=True,
            detail="no generation fully verifies; rebuilding the newest",
        )
    # The resolver only falls back to generations it can READ — but repair
    # can do better: when a valid CURRENT names a newer generation whose
    # spatial table still parses, the committed data survives even though
    # the manifest is damaged.  Rebuild that generation in place instead of
    # abandoning the committed append.
    if target.fallback:
        try:
            pointed = read_current(backend, actor=ds.actor)
        except FormatError:
            pointed = None
        if pointed is not None and pointed > target.generation:
            try:
                SpatialMetadata.read(
                    backend, generation_meta_path(pointed), actor=ds.actor
                )
            except (BackendError, FormatError):
                pass
            else:
                target = ResolvedGeneration(
                    pointed,
                    fallback=True,
                    detail=(
                        f"CURRENT names generation {pointed}; its table "
                        "survives, rebuilding the manifest in place"
                    ),
                )
    plan.target = target
    manifest_path, meta_path = target.manifest_path, target.meta_path

    # Generations the scrub condemned (crashed appends that never flipped
    # CURRENT, chained state that fails verification, lying filenames) are
    # dropped: their manifest/meta deleted, their unique files quarantined.
    _DROP_REASONS = {
        "generation-ahead": "crashed before its CURRENT flip (never committed)",
        "generation-damaged": "fails verification and is not the repair target",
        "generation-mismatch": "embedded generation contradicts its filename",
    }
    drop_reasons: dict[int, str] = {}
    for issue in report.issues:
        reason = _DROP_REASONS.get(issue.code)
        parsed = parse_generation_path(issue.path)
        if reason is None or parsed is None:
            continue
        gen = parsed[1]
        if gen != target.generation:
            drop_reasons.setdefault(gen, reason)
    drop_gens = sorted(drop_reasons)
    dropped_ns = tuple(f"g{g}_" for g in drop_gens)
    current_damaged = any(
        issue.code in ("current-corrupt", "current-missing", "current-dangling")
        for issue in report.issues
    )

    # Surviving dataset-level state, each piece probed independently.
    manifest: Manifest | None = None
    if backend.exists(manifest_path):
        try:
            manifest = Manifest.read(backend, manifest_path, actor=ds.actor)
        except FormatError:
            manifest = None
    metadata: SpatialMetadata | None = None
    raw_meta: bytes | None = None
    if backend.exists(meta_path):
        try:
            raw_meta = bytes(backend.read_file(meta_path))
            metadata = SpatialMetadata.from_bytes(raw_meta)
        except (BackendError, FormatError):
            metadata = None

    ref_records = (
        {r.file_path: r for r in metadata.records} if metadata is not None else {}
    )

    # Files referenced only by OTHER retained generations (e.g. the
    # pre-compaction inputs an old generation still serves to pinned
    # readers) are foreign to this target: not inventory, not orphans.
    foreign: set[str] = set()
    for gen in list_generations(backend):
        if gen == target.generation or gen in drop_reasons:
            continue
        try:
            _m, other_meta = load_generation(backend, gen)
        except FormatError:
            continue
        foreign.update(r.file_path for r in other_meta.records)
    if manifest is not None:
        foreign -= set(manifest.checksums)
    foreign -= set(ref_records)

    paths = set(ref_records)
    try:
        names = backend.listdir("data")
    except BackendError:
        names = []
    paths.update(
        f"data/{n}"
        for n in names
        if not n.startswith(".")
        and f"data/{n}" not in foreign
        and not (dropped_ns and n.startswith(dropped_ns))
    )
    ordered_paths = sorted(paths, key=_natural_key)

    # Dataset-wide facts, settled once before any file is inspected: from
    # the manifest and the table when they survived, else from the first
    # readable recovery trailer (identical across one dataset's files).
    donor = None
    if manifest is None or metadata is None:
        donor = _donor_trailer(ds, ordered_paths)
        if donor is None:
            lost = "spatial.meta" if metadata is None else "manifest.json"
            plan.unresolved.append(
                f"{lost} is lost and no data file carries a readable "
                "recovery trailer (pre-v3 dataset?) — cannot rebuild"
            )
            return plan
    try:
        facts = settle_facts(manifest, metadata, donor)
    except FormatError as exc:
        plan.unresolved.append(f"recovery trailer has a bad dtype: {exc}")
        return plan
    writer_prov = (
        manifest.writer
        if manifest is not None
        else {"provenance": "rebuilt by repro repair"}
    )

    # Scope the inspection from the scrub report: with both dataset-level
    # pieces intact and no cross-check complaints, only flagged files need
    # their bytes re-read — everything else carries over verbatim.
    issue_paths = {issue.path for issue in report.issues}
    dataset_level_damage = (
        manifest is None
        or metadata is None
        or manifest_path in issue_paths
        or meta_path in issue_paths
    )
    inspect_paths = (
        ordered_paths
        if dataset_level_damage
        else [p for p in ordered_paths if p in issue_paths]
    )

    # Fan the per-file byte inspection out on the dataset's executor;
    # children merge back in submission order (executor-independent).
    tasks = [
        (
            lambda child, p=path: inspect_file(
                ds, p, committed_entry(manifest, ref_records.get(p), p), facts, child
            )
        )
        for path in inspect_paths
    ]
    states: dict[str, FileState] = {}
    for outcome in ds.executor.run(tasks, ds.recorder):
        if outcome.recorder is not None:
            ds.recorder.merge(outcome.recorder)
        if outcome.error is not None:
            raise outcome.error
        states[outcome.value.path] = outcome.value

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

    for path in ordered_paths:
        ref = ref_records.get(path)
        if path not in states:
            # Scrub found nothing wrong with this file; carry its committed
            # record and checksum entry over untouched.
            assert ref is not None and manifest is not None
            keep(ref, _norm_entry(committed_entry(manifest, ref, path)))
            continue
        st = states[path]

        if st.status == "missing":
            assert ref is not None  # inventory only adds existing files
            add(
                ACTION_DROP_MISSING,
                path,
                "referenced data file is gone; dropping its record",
                lost=ref.particle_count,
            )
            continue

        if st.status == "unreadable":
            # Cannot even copy it aside; leave it in place and report.
            plan.unresolved.append(f"{path}: unreadable ({st.detail})")
            if ref is not None:
                keep(ref, _norm_entry(committed_entry(manifest, ref, path)))
            continue

        if st.status == "corrupt":
            add(
                ACTION_QUARANTINE,
                path,
                st.detail,
                lost=ref.particle_count if ref is not None else st.header_count,
            )
            continue

        if st.status == "torn":
            if ref is not None and st.salvage_count > 0:
                record = MetadataRecord(
                    box_id=ref.box_id,
                    agg_rank=ref.agg_rank,
                    particle_count=st.salvage_count,
                    bounds=ref.bounds,
                    attr_ranges=dict(ref.attr_ranges),
                    gen=ref.gen,
                )
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
                    st.salvage_count, st.rec_size, want_trailer(record, entry, facts)
                )
                keep(record, entry)
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
                    lost=ref.particle_count if ref is not None else 0,
                )
            continue

        # -- structurally valid file ---------------------------------------
        if ref is None and metadata is not None:
            add(
                ACTION_QUARANTINE,
                path,
                "not referenced by spatial.meta (aborted-write orphan)",
            )
            continue

        # The file's own account of itself: a trailer that parses and
        # agrees with the header's count.
        own = st.trailer if st.trailer is not None and not st.trailer_detail else None
        if ref is None:
            # Metadata is being rebuilt; adopt the record from the trailer.
            if own is None:
                add(
                    ACTION_QUARANTINE,
                    path,
                    f"spatial.meta lost and no usable trailer "
                    f"({st.trailer_detail or 'none present'})",
                    lost=st.header_count,
                )
                continue
            record = own.record
            if record.file_path != path:
                add(
                    ACTION_QUARANTINE,
                    path,
                    f"trailer names aggregator {record.agg_rank} "
                    f"({record.file_path}), contradicting its own path",
                    lost=st.header_count,
                )
                continue
            adopted += 1
        elif st.header_count != ref.particle_count:
            if own is not None and own.record.agg_rank == ref.agg_rank:
                record = own.record
                add(
                    ACTION_REBUILD_ENTRY,
                    path,
                    f"spatial.meta says {ref.particle_count} particles, file "
                    f"holds {st.header_count}; trusting the file's trailer",
                )
            else:
                add(
                    ACTION_QUARANTINE,
                    path,
                    f"spatial.meta says {ref.particle_count} particles, file "
                    f"holds {st.header_count}, and no trailer arbitrates",
                    lost=ref.particle_count,
                )
                continue
        else:
            record = ref

        # Checksum entry: the one recomputed from the verified payload.
        entry = st.actual_entry
        assert entry is not None  # every valid file has one
        old_entry = _norm_entry(committed_entry(manifest, ref, path))
        already_noted = any(
            a.path == path and a.kind == ACTION_REBUILD_ENTRY
            for a in plan.actions
        )
        if manifest is not None and old_entry != entry and not already_noted:
            add(
                ACTION_REBUILD_ENTRY,
                path,
                "manifest checksum entry disagrees with the data file; "
                "recomputed from the payload"
                if old_entry is not None
                else "manifest entry missing; recomputed from the payload",
            )
        keep(record, entry)

        # Trailer health: v3 files must carry the trailer the repaired state
        # determines — the same comparison scrub makes; rewrite it if not.
        if st.version >= 3:
            wanted = want_trailer(record, entry, facts)
            if st.trailer != wanted:
                plan.rewrite[path] = (st.header_count, st.rec_size, wanted)
                add(
                    ACTION_REWRITE_TRAILER,
                    path,
                    st.trailer_detail
                    or "recovery trailer disagrees with committed state",
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
        plan.drop_files.clear()
        plan.delete_paths.clear()
        plan.write_current_gen = None
        return plan
    plan.meta_blob = table.to_bytes()
    plan.rebuild_metadata = raw_meta is None or plan.meta_blob != raw_meta
    if plan.rebuild_metadata:
        detail = f"{len(table)} records"
        if adopted:
            detail += f" ({adopted} adopted from recovery trailers)"
        plan.actions.insert(
            0, RepairAction(ACTION_REBUILD_METADATA, meta_path, detail)
        )

    new_manifest = Manifest(
        dtype=facts.dtype,
        num_files=len(table),
        total_particles=table.total_particles,
        lod_base=facts.lod_base,
        lod_scale=facts.lod_scale,
        lod_heuristic=facts.lod_heuristic,
        lod_seed=facts.lod_seed,
        writer=writer_prov,
        checksums={p: checksums[p] for p in sorted(checksums, key=_natural_key)},
        spatial_meta_crc32=zlib.crc32(plan.meta_blob),
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
                manifest_path,
                "committed state rewritten from repaired files"
                if manifest is not None
                else "committed state rebuilt from recovery trailers",
            ),
        )

    # -- chain hygiene: drops, residue, and the CURRENT pointer -------------
    target_refs = set(checksums) | set(ref_records) | foreign
    for gen in drop_gens:
        prefix = f"g{gen}_"
        unique = sorted(
            (
                f"data/{n}"
                for n in names
                if n.startswith(prefix) and f"data/{n}" not in target_refs
            ),
            key=_natural_key,
        )
        plan.drop_files[gen] = unique
        plan.delete_paths.append(generation_manifest_path(gen))
        plan.delete_paths.append(generation_meta_path(gen))
        plan.actions.append(
            RepairAction(
                ACTION_DROP_GENERATION,
                generation_manifest_path(gen),
                f"generation {gen} {drop_reasons[gen]}",
            )
        )
        plan.actions.extend(
            RepairAction(
                ACTION_QUARANTINE,
                path,
                f"belongs to dropped generation {gen}",
            )
            for path in unique
        )
    for issue in report.issues:
        if issue.code == "generation-residue":
            plan.delete_paths.append(issue.path)
            plan.actions.append(
                RepairAction(
                    ACTION_DROP_GENERATION,
                    issue.path,
                    "spatial table without its manifest (aborted commit "
                    "residue)",
                )
            )
    if target.generation > 0:
        # Chained datasets always finish by (re)pointing CURRENT at the
        # converged generation — this is the repair's own commit flip.
        plan.write_current_gen = target.generation
        if current_damaged:
            plan.actions.append(
                RepairAction(
                    ACTION_REWRITE_CURRENT,
                    CURRENT_PATH,
                    f"pointer rewritten to committed generation "
                    f"{target.generation}",
                )
            )
    elif backend.exists(CURRENT_PATH) and (current_damaged or drop_gens):
        plan.delete_paths.append(CURRENT_PATH)
        plan.actions.append(
            RepairAction(
                ACTION_REWRITE_CURRENT,
                CURRENT_PATH,
                "stray pointer removed (classic single-manifest dataset)",
            )
        )

    if target.generation == 0:
        plan.invalidate_marker = (
            backend.exists(MANIFEST_PATH) and plan.rebuild_manifest
        )
    else:
        plan.invalidate_marker = backend.exists(CURRENT_PATH) and (
            plan.rebuild_manifest or plan.rebuild_metadata
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

    with ds.recorder.span(PHASE_REPAIR_PLAN, cat="repair"):
        plan = _plan(ds, report)
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
