"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.core import SpatialReader, SpatialWriter, WriterConfig
from repro.domain import Box, PatchDecomposition
from repro.format.codecs import get_codec
from repro.format.datafile import columnar_columns
from repro.io import VirtualBackend
from repro.mpi import run_mpi
from repro.particles import uniform_particles
from repro.particles.dtype import MINIMAL_DTYPE, UINTAH_DTYPE


@pytest.fixture
def unit_domain() -> Box:
    return Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def write_dataset(
    nprocs: int = 8,
    partition_factor: tuple[int, int, int] = (2, 2, 2),
    particles_per_rank: int = 500,
    config: WriterConfig | None = None,
    domain: Box | None = None,
    batch_fn=None,
    dtype=MINIMAL_DTYPE,
    seed: int = 7,
    backend=None,
    retry=None,
):
    """Run a full SPMD write; returns (backend, decomp, per-rank results).

    ``batch_fn(rank, patch)`` overrides the default uniform generator.
    ``backend`` substitutes the target backend (e.g. a fault-injecting
    wrapper); ``retry`` substitutes the writer's RetryPolicy.
    """
    domain = domain or Box([0, 0, 0], [1, 1, 1])
    decomp = PatchDecomposition.for_nprocs(domain, nprocs)
    backend = backend if backend is not None else VirtualBackend()
    cfg = config or WriterConfig(partition_factor=partition_factor)
    writer = SpatialWriter(cfg, retry=retry)

    def main(comm):
        patch = decomp.patch_of_rank(comm.rank)
        if batch_fn is not None:
            batch = batch_fn(comm.rank, patch)
        else:
            batch = uniform_particles(
                patch, particles_per_rank, dtype=dtype, seed=seed, rank=comm.rank
            )
        return writer.write(comm, batch, decomp, backend)

    results = run_mpi(nprocs, main)
    return backend, decomp, results


def read_dataset(backend) -> SpatialReader:
    return SpatialReader(backend)


__all__ = [
    "write_dataset",
    "read_dataset",
    "MINIMAL_DTYPE",
    "UINTAH_DTYPE",
]


def decode_columnar_payload(payload, index, codec_name: str, dtype, path: str) -> np.ndarray:
    """The per-segment reference decode of a v4 ``payload``: each segment of
    ``index``'s table CRC-checked, then one ``Codec.decode`` each, scattered
    into logical rows — what the reader's run decode is compared against."""
    codec = get_codec(codec_name)
    out = np.empty(index.total_particles, dtype=dtype)
    pos = 0
    for count, chunk in zip(index.counts.tolist(), index.segments.tolist()):
        for col, (off, length, crc) in zip(columnar_columns(dtype), chunk):
            enc = bytes(payload[off : off + length])
            assert zlib.crc32(enc) == crc, f"{path}: segment at {off} fails its CRC32"
            raw = codec.decode(enc, col.itemsize, count * col.nbytes)
            vals = np.frombuffer(raw, dtype=col.base)
            if col.comp is not None:
                out[col.field][pos : pos + count, col.comp] = vals
            else:
                out[col.field][pos : pos + count] = vals.reshape((count, *col.shape))
        pos += count
    return out
