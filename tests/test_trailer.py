"""The binary recovery trailer, and the files written before it.

Four families of checks:

* **structure-aware fuzz** — truncation at every field boundary, every
  length and count field set to 0, 1 or huge, non-UTF-8 text: each body
  raises :class:`~repro.errors.DataFileError`, and in a dataset is scrubbed
  as a repairable ``trailer-damaged`` that repair restores byte for byte;
* **CRC-valid lies** — a trailer whose record (bounds off by one ulp, an
  attribute range, ``gen``, box, count), section, checksum entry
  (``payload_crc32``, ``prefixes``) or dataset facts (dtype, LOD base,
  scale, heuristic, seed) disagree with the table, the manifest and the
  payload is a repairable ``trailer-mismatch``, and repair rewrites exactly
  that trailer (variants drawn from ``REPRO_FAULT_SEED``);
* **legacy matrix** — on fixtures R and C whose trailers come from the
  reference JSON encoder (``json_trailer``, the form earlier writers
  produced, under v5 and pre-section v3 tables): scrub is clean, answers
  equal the e2e oracle, appends work, repair leaves healthy legacy trailers
  alone and rewrites a damaged one in the binary encoding, and ``compact``
  upgrades;
* **JSON numbers** — ``Infinity`` and short bounds in a CRC-valid legacy
  trailer are ``trailer-damaged`` through scrub, a dry-run repair and
  ``repro scrub``, never a foreign exception.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import SpatialWriter, scrub_dataset
from repro.core.compact import compact_dataset
from repro.core.repair import repair_dataset
from repro.dataset import Dataset, open_dataset
from repro.domain import Box
from repro.errors import DataFileError
from repro.format.datafile import (
    LEGACY_TRAILER_MAGIC,
    TRAILER_FOOTER_BYTES,
    TRAILER_MAGIC,
    RecoveryTrailer,
    extract_recovery_trailer,
    read_recovery_trailer,
)
from repro.format.metadata import SpatialMetadata
from repro.io import VirtualBackend
from repro.mpi import run_mpi

from . import test_chunk_section as tcs
from .test_write_path import oracle_trailer_pieces

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from e2e.fixtures import FIXTURES, generate, write_dataset  # noqa: E402
from e2e.oracle import Oracle  # noqa: E402

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))
VICTIM = "data/file_0.pbin"


def body_of(raw: bytes) -> bytes:
    body_len = struct.unpack("<4sII", raw[-TRAILER_FOOTER_BYTES:])[1]
    return raw[len(raw) - TRAILER_FOOTER_BYTES - body_len : -TRAILER_FOOTER_BYTES]


def framed(body: bytes, magic: bytes = TRAILER_MAGIC) -> bytes:
    """``body`` under a valid tail: damage the CRC cannot see."""
    return body + struct.pack("<4sII", magic, len(body), zlib.crc32(body))


def victim_trailer(backend: VirtualBackend) -> RecoveryTrailer:
    return read_recovery_trailer(backend, VICTIM)


def assert_repaired(damaged: VirtualBackend, original: VirtualBackend, codes: set[str]) -> None:
    """Scrub flags the victim's trailer (repairable, ``codes`` only) and
    repair rewrites exactly that trailer, restoring every byte."""
    report = scrub_dataset(Dataset(damaged))
    assert report.codes == codes, [i.detail for i in report.issues]
    assert all(i.repairable and i.path == VICTIM for i in report.issues)
    result = Dataset(damaged).repair(report)
    assert result.ok and not result.data_loss
    assert [a.kind for a in result.actions] == ["rewrite-trailer"]
    assert damaged._files == original._files


def with_body(backend: VirtualBackend, body: bytes, magic: bytes = TRAILER_MAGIC) -> VirtualBackend:
    damaged = tcs.clone(backend)
    damaged.write_file(VICTIM, tcs.with_trailer(backend.read_file(VICTIM), framed(body, magic)))
    return damaged


# -- structure-aware fuzz ----------------------------------------------------------


def piece_offsets(trailer: RecoveryTrailer) -> dict[str, int]:
    """Where each oracle piece of ``trailer``'s body starts."""
    out, pos = {}, 0
    for name, piece in oracle_trailer_pieces(trailer):
        out[name] = pos
        pos += len(piece)
    out["end"] = pos
    return out


def count_fields(trailer: RecoveryTrailer) -> dict[str, tuple[int, str]]:
    """``name -> (offset, struct code)`` of every length and count field."""
    at = piece_offsets(trailer)
    first, typestr = trailer.dtype_descr[0][0], trailer.dtype_descr[0][1]
    name0 = next(n for n in at if n.startswith("name:"))
    field0 = at["descr"] + 4
    return {
        "num_attrs": (0, "I"),
        "name_len": (at[name0], "I"),
        "section_len": (at["section_len"], "Q"),
        "num_prefixes": (at["facts"] + 4, "I"),
        "codec_len": (at["codec"], "I"),
        "heuristic_len": (at["heuristic"], "I"),
        "seed_len": (at["seed"], "I"),
        "descr_fields": (at["descr"], "I"),
        "descr_name_len": (field0, "I"),
        "descr_typestr_len": (field0 + 4 + len(first) + 1, "I"),
        "descr_ndim": (field0 + 4 + len(first) + 1 + 4 + len(typestr), "I"),
    }


@pytest.mark.parametrize("columnar", [False, True], ids=["row", "columnar"])
class TestTrailerFuzz:
    def test_truncation_at_every_field_boundary(self, columnar):
        backend = tcs.SMALL[columnar]
        trailer = victim_trailer(backend)
        body = trailer.to_bytes()[:-TRAILER_FOOTER_BYTES]
        bounds = set(piece_offsets(trailer).values())
        cuts = sorted({c for b in bounds for c in (b - 1, b, b + 1) if 0 <= c < len(body)})
        for cut in cuts:
            with pytest.raises(DataFileError):
                RecoveryTrailer.from_bytes(body[:cut], "f")
        assert_repaired(with_body(backend, body[: cuts[len(cuts) // 2]]), backend,
                        {"trailer-damaged"})

    @pytest.mark.parametrize("value", ["0", "1", "huge"])
    def test_length_and_count_fields_set_to_0_1_huge(self, columnar, value):
        backend = tcs.SMALL[columnar]
        trailer = victim_trailer(backend)
        body = trailer.to_bytes()[:-TRAILER_FOOTER_BYTES]
        for name, (offset, code) in count_fields(trailer).items():
            huge = 2**64 - 1 if code == "Q" else 2**32 - 1
            edited = bytearray(body)
            struct.pack_into(f"<{code}", edited, offset, {"0": 0, "1": 1, "huge": huge}[value])
            if bytes(edited) == body:
                continue  # the field already held the value
            with pytest.raises(DataFileError):
                RecoveryTrailer.from_bytes(bytes(edited), name)
            assert_repaired(with_body(backend, bytes(edited)), backend, {"trailer-damaged"})

    @pytest.mark.parametrize("text", ["name", "codec", "heuristic", "descr_name", "descr_typestr"])
    def test_non_utf8_text(self, columnar, text):
        backend = tcs.SMALL[columnar]
        trailer = victim_trailer(backend)
        if text == "codec" and not columnar:
            pytest.skip("a row file's trailer has an empty codec")
        fields = count_fields(trailer)
        offset = fields[{"name": "name_len", "codec": "codec_len",
                         "heuristic": "heuristic_len", "descr_name": "descr_name_len",
                         "descr_typestr": "descr_typestr_len"}[text]][0] + 4
        edited = bytearray(trailer.to_bytes()[:-TRAILER_FOOTER_BYTES])
        edited[offset] = 0xFF
        with pytest.raises(DataFileError, match="utf"):
            RecoveryTrailer.from_bytes(bytes(edited), "f")
        assert_repaired(with_body(backend, bytes(edited)), backend, {"trailer-damaged"})

    def test_round_trip_and_one_encoder_with_the_table(self, columnar):
        backend = tcs.SMALL[columnar]
        table = {r.file_path: r for r in SpatialMetadata.read_whole(backend)}
        for path in [p for p in backend._files if p.startswith("data/")]:
            raw = backend.read_file(path)
            assert raw[-TRAILER_FOOTER_BYTES:][:4] == TRAILER_MAGIC
            trailer = extract_recovery_trailer(raw, path)
            assert trailer.record == table[path]  # section included, byte for byte
            assert framed(body_of(raw)) == trailer.to_bytes()
            assert (trailer.codec is not None) == columnar


def lies(trailer: RecoveryTrailer, columnar: bool) -> dict[str, RecoveryTrailer]:
    """CRC-valid trailers that disagree with the table and the payload."""
    rec = trailer.record
    name = next(iter(rec.attr_ranges))
    lo = rec.bounds.lo.copy()
    lo[FAULT_SEED % 3] = np.nextafter(lo[FAULT_SEED % 3], -np.inf)
    amin, amax = rec.attr_ranges[name]
    index = tcs.FileChunkIndex.unpack(rec.section)
    index.hi[FAULT_SEED % len(index), 1] += 0.125  # a wider chunk: still valid
    out = {
        "bounds-one-ulp": dataclasses.replace(rec, bounds=Box(lo, rec.bounds.hi)),
        "attr-range": dataclasses.replace(
            rec, attr_ranges={**rec.attr_ranges, name: (amin, np.nextafter(amax, np.inf))}
        ),
        "gen": dataclasses.replace(rec, gen=rec.gen + 1 + FAULT_SEED),
        "box-id": dataclasses.replace(rec, box_id=rec.box_id + 100),
        "count": dataclasses.replace(rec, particle_count=rec.particle_count - 1),
        "section-bounds": dataclasses.replace(rec, section=index.to_section()),
    }
    if columnar:
        segs = tcs.FileChunkIndex.unpack(rec.section)
        segs.segments[-1, -1, 2] ^= 1 << (FAULT_SEED % 32)  # a lying CRC
        out["section-segment-crc"] = dataclasses.replace(rec, section=segs.to_section())
        segs = tcs.FileChunkIndex.unpack(rec.section)
        segs.segments[1:, :, 0] += 1  # every later segment shifted by a byte
        out["section-segment-offsets"] = dataclasses.replace(rec, section=segs.to_section())
    prefixes = list(trailer.prefixes)
    i = FAULT_SEED % len(prefixes)
    prefixes[i] = (prefixes[i][0], prefixes[i][1] ^ 1)
    descr = trailer.dtype_descr
    return {
        **{k: dataclasses.replace(trailer, record=v) for k, v in out.items()},
        # The trailer's own facts: its copy of the manifest entry and of the
        # dataset-wide dtype and LOD parameters.
        "payload-crc32": dataclasses.replace(
            trailer, payload_crc32=trailer.payload_crc32 ^ 1 << (FAULT_SEED % 32)
        ),
        "prefixes": dataclasses.replace(trailer, prefixes=tuple(prefixes)),
        "dtype-descr": dataclasses.replace(
            trailer, dtype_descr=[[descr[0][0] + "_", *descr[0][1:]], *descr[1:]]
        ),
        "lod-base": dataclasses.replace(trailer, lod_base=trailer.lod_base + 1),
        "lod-scale": dataclasses.replace(trailer, lod_scale=trailer.lod_scale + 1),
        "lod-heuristic": dataclasses.replace(
            trailer, lod_heuristic=trailer.lod_heuristic + "-x"
        ),
        "lod-seed": dataclasses.replace(trailer, lod_seed=(trailer.lod_seed or 0) + 7),
    }


@pytest.mark.parametrize("columnar", [False, True], ids=["row", "columnar"])
class TestCrcValidLies:
    def test_each_lie_is_a_repairable_mismatch(self, columnar):
        backend = tcs.SMALL[columnar]
        for what, lying in lies(victim_trailer(backend), columnar).items():
            damaged = with_body(backend, lying.to_bytes()[:-TRAILER_FOOTER_BYTES])
            # Answers never depend on the trailer.
            want = open_dataset(backend).reader()
            got = open_dataset(damaged).reader()
            for box in tcs.BOXES:
                a = got.execute(got.plan_box_read(box), exact=True).data.tobytes()
                assert a == want.execute(want.plan_box_read(box), exact=True).data.tobytes(), what
            assert_repaired(damaged, backend, {"trailer-mismatch"})

    def test_lying_codec_is_a_repairable_mismatch(self, columnar):
        backend = tcs.SMALL[columnar]
        trailer = victim_trailer(backend)
        lying = dataclasses.replace(trailer, codec=None if columnar else "shuffle-zlib")
        damaged = with_body(backend, lying.to_bytes()[:-TRAILER_FOOTER_BYTES])
        assert_repaired(damaged, backend, {"trailer-mismatch"})


# -- legacy matrix -------------------------------------------------------------------


@pytest.fixture(scope="module")
def fixtures():
    return {name: tcs.write_fixture(name) for name in ("R", "C")}


def legacy(fixtures, name: str, tables: str) -> VirtualBackend:
    """Fixture ``name`` as an earlier writer left it: JSON trailers under a
    v5 table (``tables="v5"``), or also a pre-section v3 table with the chunk
    lists in the manifest (``"v3"``)."""
    backend = tcs.clone(fixtures[name][0])
    (tcs.make_legacy if tables == "v3" else tcs.json_trailers)(backend)
    return backend


def magics(backend: VirtualBackend) -> dict[str, bytes]:
    return {
        p: raw[-TRAILER_FOOTER_BYTES:][:4]
        for p, raw in backend._files.items() if p.startswith("data/")
    }


@pytest.mark.parametrize("name", ["R", "C"])
def test_legacy_trailers_decode_to_the_binary_ones(fixtures, name):
    backend, current = legacy(fixtures, name, "v5"), fixtures[name][0]
    assert set(magics(backend).values()) == {LEGACY_TRAILER_MAGIC}
    for path in magics(backend):
        assert read_recovery_trailer(backend, path) == read_recovery_trailer(current, path)


@pytest.mark.parametrize("name", ["R", "C"])
@pytest.mark.parametrize("tables", ["v5", "v3"])
class TestLegacyMatrix:
    def test_scrub_is_clean_and_answers_equal_the_oracle(self, fixtures, name, tables):
        backend = legacy(fixtures, name, tables)
        assert scrub_dataset(Dataset(backend)).ok
        pruned = not (tables == "v3" and name == "R")  # no index: whole files
        tcs.TestLegacyDataset.assert_answers(
            open_dataset(backend).reader(), Oracle(fixtures[name][1]), pruned
        )

    def test_append_onto_a_legacy_base(self, fixtures, name, tables):
        backend = legacy(fixtures, name, tables)
        fx = FIXTURES[name]
        extra = generate(fx, tcs.SEED + 7, smoke=True)[0]
        writer, decomp = SpatialWriter(fx.writer_config()), fx.decomposition()
        run_mpi(fx.ranks, lambda comm: writer.append(comm, extra[comm.rank], decomp, backend))
        assert open_dataset(backend).generation == 1
        assert scrub_dataset(Dataset(backend)).ok
        kinds = magics(backend)
        assert {kinds[p] for p in kinds if p.startswith("data/g1_")} == {TRAILER_MAGIC}
        assert {kinds[p] for p in kinds if not p.startswith("data/g1_")} == {LEGACY_TRAILER_MAGIC}
        oracle = Oracle([np.concatenate([*fixtures[name][1], *(b.data for b in extra)])])
        # The appended generation's files are indexed whatever the base.
        tcs.TestLegacyDataset.assert_answers(open_dataset(backend).reader(), oracle, True)

    def test_repair_leaves_healthy_legacy_trailers_alone(self, fixtures, name, tables):
        backend = legacy(fixtures, name, tables)
        before = dict(backend._files)
        backend.delete("manifest.json")  # every file is re-inspected
        result = repair_dataset(Dataset(backend))
        assert result.ok and not result.data_loss
        assert "rewrite-trailer" not in {a.kind for a in result.actions}
        assert {p: backend._files[p] for p in magics(backend)} == {
            p: before[p] for p in magics(backend)
        }
        assert scrub_dataset(Dataset(backend)).ok

    def test_damaged_legacy_trailer_is_rewritten_binary(self, fixtures, name, tables):
        if tables == "v3" and name == "C":
            pytest.skip("a v3 table keeps no segment table: the trailer was its only copy")
        backend = legacy(fixtures, name, tables)
        raw = backend.read_file(VICTIM)
        backend.write_file(VICTIM, raw[:-TRAILER_FOOTER_BYTES])
        report = scrub_dataset(Dataset(backend))
        assert report.codes == {"trailer-damaged"}
        result = Dataset(backend).repair(report)
        assert result.ok and not result.data_loss
        assert [a.kind for a in result.actions] == ["rewrite-trailer"]
        kinds = magics(backend)
        assert kinds.pop(VICTIM) == TRAILER_MAGIC
        assert set(kinds.values()) == {LEGACY_TRAILER_MAGIC}
        if tables == "v5":  # the trailer the current writer produces, exactly
            assert backend.read_file(VICTIM) == fixtures[name][0].read_file(VICTIM)
        assert scrub_dataset(Dataset(backend)).ok

    def test_compact_upgrades(self, fixtures, name, tables):
        backend = legacy(fixtures, name, tables)
        compact_dataset(backend)
        ds = open_dataset(backend)
        assert ds.generation == 1
        assert {magics(backend)[rec.file_path] for rec in ds.metadata} == {TRAILER_MAGIC}
        assert all(rec.section_ref for rec in ds.metadata)
        assert scrub_dataset(Dataset(backend)).ok
        tcs.TestLegacyDataset.assert_answers(ds.reader(), Oracle(fixtures[name][1]), True)


# -- JSON numbers in a CRC-valid legacy trailer ----------------------------------------


def legacy_doc(backend) -> dict:
    body = body_of(backend.read_file(VICTIM))
    return json.loads(body)


EDITS = {
    "box-id-infinity": lambda d: d.__setitem__("box_id", float("inf")),
    "prefix-count-infinity": lambda d: d["prefixes"][0].__setitem__(0, float("inf")),
    "bounds-lo-one-float": lambda d: d["bounds"].__setitem__("lo", [0.0]),
    "count-nan": lambda d: d.__setitem__("particle_count", float("nan")),
    "chunk-start-infinity": lambda d: d["chunks"][0].__setitem__(0, float("inf")),
    "box-id-too-wide": lambda d: d.__setitem__("box_id", 2**70),
}


def edited_legacy(backend: VirtualBackend, edit) -> VirtualBackend:
    damaged = tcs.clone(backend)
    doc = legacy_doc(damaged)
    EDITS[edit](doc)
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    damaged.write_file(
        VICTIM, tcs.with_trailer(damaged.read_file(VICTIM), framed(body, LEGACY_TRAILER_MAGIC))
    )
    return damaged


@pytest.mark.parametrize("name", ["R", "C"])
@pytest.mark.parametrize("edit", sorted(EDITS))
class TestLegacyJsonNumbers:
    def test_scrub_reports_trailer_damaged(self, fixtures, name, edit):
        damaged = edited_legacy(legacy(fixtures, name, "v5"), edit)
        with pytest.raises(DataFileError):
            read_recovery_trailer(damaged, VICTIM)
        report = scrub_dataset(Dataset(damaged))
        assert report.codes == {"trailer-damaged"}
        assert all(i.repairable for i in report.issues)

    def test_dry_run_repair_plans_a_rewrite(self, fixtures, name, edit):
        damaged = edited_legacy(legacy(fixtures, name, "v5"), edit)
        before = dict(damaged._files)
        result = repair_dataset(Dataset(damaged), dry_run=True)
        assert [a.kind for a in result.actions] == ["rewrite-trailer"]
        assert result.exit_code == 1 and damaged._files == before
        assert repair_dataset(Dataset(damaged)).ok
        assert scrub_dataset(Dataset(damaged)).ok


@pytest.mark.parametrize("name", ["R", "C"])
@pytest.mark.parametrize(
    "edit", ["box-id-infinity", "prefix-count-infinity", "bounds-lo-one-float"]
)
def test_cli_scrub_and_repair_follow_the_exit_code_contract(tmp_path, capsys, name, edit):
    fx = FIXTURES[name]
    root = tmp_path / name
    write_dataset(fx, generate(fx, tcs.SEED, smoke=True)[0], str(root))
    path = root / VICTIM
    raw = path.read_bytes()
    doc = json.loads(body_of(tcs.json_trailer(extract_recovery_trailer(raw, VICTIM))))
    EDITS[edit](doc)
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(tcs.with_trailer(raw, framed(body, LEGACY_TRAILER_MAGIC)))
    assert cli_main(["scrub", str(root)]) == 1
    out = capsys.readouterr().out
    assert "[repairable] trailer-damaged" in out
    assert cli_main(["repair", str(root), "--dry-run"]) == 1
    assert cli_main(["repair", str(root)]) == 0
    assert path.read_bytes() == raw  # rewritten as the writer wrote it
    assert cli_main(["scrub", str(root)]) == 0
