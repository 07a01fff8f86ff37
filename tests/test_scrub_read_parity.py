"""Scrub and the reader judge a damaged data file alike.

Scrub classifies every data file with the read path's own verifier
(:func:`repro.format.datafile.verify_image`).  For each kind of payload
damage, on a row and a columnar dataset, the files and chunks scrub names
are exactly those a strict read raises on and a degraded read skips —
whole partitions (``ReadReport.skipped``) for file-level damage, single
chunks (``EV_CHUNK_SKIPPED``) for a damaged column segment.
"""

from __future__ import annotations

import re
import zlib

import numpy as np
import pytest

import repro.core.writer as writer_module
from repro.core.config import WriterConfig
from repro.core.repair import ACTION_TRUNCATE, repair_dataset
from repro.core.scrub import scrub_dataset
from repro.dataset import Dataset
from repro.errors import FormatError
from repro.format.chunks import FileChunkIndex
from repro.format.datafile import HEADER_BYTES, columnar_payload_length
from repro.format.metadata import SpatialMetadata
from repro.io import VirtualBackend
from repro.obs.names import EV_CHUNK_SKIPPED

from .conftest import write_dataset

VICTIM = "data/file_0.pbin"
#: The codes of a data file's own payload verdict.
PAYLOAD_CODES = {"data-checksum", "data-truncated", "segment-checksum", "data-corrupt"}


def _write(layout: str):
    config = WriterConfig(partition_factor=(2, 2, 1), layout=layout, codec="shuffle-zlib")
    return write_dataset(nprocs=8, config=config)[0]


def _broken_stream(encode):
    """``encode_columnar_payload`` writing, in the file holding particle 0,
    chunk 1's first segment with a zlib header no stream has — its
    descriptor CRC, trailer and footer computed over the broken bytes."""

    def encode_broken(batch, index, codec):
        payload, table = encode(batch, index, codec)
        if len(index) > 1 and (batch.data["id"] == 0).any():
            off, length, _crc = table[1, 0].tolist()
            payload = bytearray(payload)
            payload[off : off + 2] = b"\xff\xff"
            table[1, 0, 2] = zlib.crc32(bytes(payload[off : off + length]))
            payload = bytes(payload)
        return payload, table

    return encode_broken


@pytest.fixture(scope="module")
def bases():
    with pytest.MonkeyPatch.context() as mp:
        encode = writer_module.encode_columnar_payload
        mp.setattr(writer_module, "encode_columnar_payload", _broken_stream(encode))
        broken = _write("columnar")
    return {"row": _write("row"), "columnar": _write("columnar"), "broken": broken}


def clone(backend) -> VirtualBackend:
    out = VirtualBackend()
    out._files = dict(backend._files)
    return out


def _victim(backend) -> tuple[int, FileChunkIndex]:
    """The victim's stored payload length and recorded chunk index."""
    rec = next(r for r in SpatialMetadata.read_whole(backend) if r.file_path == VICTIM)
    index = FileChunkIndex.unpack(rec.section, VICTIM)
    if index.segments is None:
        itemsize = Dataset(backend).manifest.dtype.itemsize
        return rec.particle_count * itemsize, index
    return columnar_payload_length(index), index


def _flip(backend, pos: int) -> None:
    raw = bytearray(backend.read_file(VICTIM))
    raw[pos] ^= 0x10
    backend.write_file(VICTIM, bytes(raw))


def payload_flip(backend):
    _flip(backend, HEADER_BYTES + _victim(backend)[0] // 2)


def segment_crc(backend):
    off, length, _crc = _victim(backend)[1].segments[-2, 1].tolist()
    _flip(backend, HEADER_BYTES + off + length // 2)


def torn_tail(backend):
    cut = HEADER_BYTES + _victim(backend)[0] // 2
    backend.write_file(VICTIM, backend.read_file(VICTIM)[:cut])


def footer_flip(backend):
    _flip(backend, HEADER_BYTES + _victim(backend)[0] + 5)


def scrub_names(backend) -> set[tuple[str, int | None]]:
    """``(file, chunk)`` per payload finding; chunk None for a whole file."""
    named = set()
    for issue in scrub_dataset(Dataset(backend)).issues:
        if issue.code in PAYLOAD_CODES:
            chunk = re.match(r"chunk (\d+) column", issue.detail)
            named.add((issue.path, int(chunk.group(1)) if chunk else None))
    return named


def strict_refusals(backend) -> set[str]:
    """The files a strict whole-file read raises on, one file at a time."""
    ds = Dataset(backend)
    engine, n = ds.engine(), len(ds.metadata)
    refused = set()
    for i, rec in enumerate(ds.metadata.records):
        try:
            engine.run(engine.plan_assigned(n, i))
        except FormatError:
            refused.add(rec.file_path)
    return refused


def degraded_skips(backend) -> set[tuple[str, int | None]]:
    """What a degraded full read leaves out: partitions and chunks."""
    ds = Dataset(backend, strict=False)
    reader = ds.reader()
    reader.read_full()
    skips: set[tuple[str, int | None]] = {(s.path, None) for s in reader.last_report.skipped}
    for ev in ds.recorder.events:
        if ev.name == EV_CHUNK_SKIPPED:
            skips.add((str(ev.args["path"]), int(ev.args["chunk"])))  # type: ignore[call-overload]
    return skips


#: (base, damage, whether reads refuse the damaged file).  Reads verify a
#: columnar file segment by segment and never its footer, so a footer flip
#: there costs no particle: scrub names it ``data-footer``, not a payload code.
CASES = [
    ("row", payload_flip, True),
    ("row", torn_tail, True),
    ("row", footer_flip, True),
    ("columnar", payload_flip, True),
    ("columnar", segment_crc, True),
    ("broken", lambda backend: None, True),
    ("columnar", torn_tail, True),
    ("columnar", footer_flip, False),
]
IDS = [
    "row-payload-flip", "row-torn-tail", "row-footer-flip", "columnar-payload-flip",
    "columnar-segment-crc", "columnar-segment-inflate", "columnar-torn-tail",
    "columnar-footer-flip",
]


@pytest.mark.parametrize("base,damage,refused", CASES, ids=IDS)
def test_scrub_names_what_reads_refuse(bases, base, damage, refused):
    backend = clone(bases[base])
    damage(backend)
    named = scrub_names(backend)
    assert bool(named) == refused
    assert {path for path, _chunk in named} == strict_refusals(backend)
    assert named == degraded_skips(backend)


def test_a_clean_dataset_names_and_skips_nothing(bases):
    for base in ("row", "columnar"):
        backend = clone(bases[base])
        assert scrub_names(backend) == set() == strict_refusals(backend)
        assert degraded_skips(backend) == set()


def _crc_break_where_the_stream_breaks(backend, path: str) -> None:
    """Flip a byte of the segment :func:`_broken_stream` breaks (chunk 1's
    first) in ``path``, so that segment fails its CRC instead."""
    rec = next(r for r in SpatialMetadata.read_whole(backend) if r.file_path == path)
    off, length, _crc = FileChunkIndex.unpack(rec.section, path).segments[1, 0].tolist()
    raw = bytearray(backend.read_file(path))
    raw[HEADER_BYTES + off + length // 2] ^= 0x10
    backend.write_file(path, bytes(raw))


def test_repair_keeps_as_much_of_a_stream_that_does_not_inflate(bases):
    """A CRC-valid segment that does not inflate is salvaged like one
    failing its CRC: repair keeps the same particles either way."""
    broken = clone(bases["broken"])
    ((path, chunk),) = scrub_names(broken)
    assert chunk == 1
    crc = clone(bases["columnar"])
    _crc_break_where_the_stream_breaks(crc, path)
    assert scrub_names(crc) == {(path, 1)}
    kept = []
    for backend in (broken, crc):
        report = scrub_dataset(Dataset(backend))
        assert [i.code for i in report.issues] == ["segment-checksum"]
        result = repair_dataset(Dataset(backend), report)
        (action,) = [a for a in result.actions if a.path == path]
        assert action.kind == ACTION_TRUNCATE and action.particles_salvaged > 0
        assert scrub_dataset(Dataset(backend)).ok
        kept.append(np.sort(Dataset(backend).reader().read_full().data["id"]))
    assert np.array_equal(*kept)


def _ids(backend) -> np.ndarray:
    return np.sort(Dataset(backend).reader().read_full().data["id"])


def test_repair_keeps_every_particle_of_a_columnar_file_whose_footer_alone_is_damaged(bases):
    """Every segment verifies, so the file salvages whole: repair rewrites
    its footer and keeps every particle id."""
    backend = clone(bases["columnar"])
    want = _ids(backend)
    records = Dataset(backend).metadata.records
    count = next(r.particle_count for r in records if r.file_path == VICTIM)
    footer_flip(backend)
    report = scrub_dataset(Dataset(backend))
    assert [(i.path, i.code) for i in report.issues] == [(VICTIM, "data-footer")]
    result = repair_dataset(Dataset(backend), report)
    (action,) = [a for a in result.actions if a.path == VICTIM]
    assert action.kind == ACTION_TRUNCATE
    assert (action.particles_salvaged, action.particles_lost) == (count, 0)
    assert result.exit_code == 0 and not result.data_loss
    assert scrub_dataset(Dataset(backend)).ok
    assert np.array_equal(_ids(backend), want)
