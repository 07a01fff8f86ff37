"""On-disk format: data files, spatial metadata table, dataset manifest.

A dataset written by the spatially-aware writer is a directory::

    <dataset>/
        manifest.json     # schema, LOD parameters, writer configuration
        spatial.meta      # binary Fig.-4 table: per-file bounding boxes
        data/
            file_<rank>.pbin   # LOD-ordered particle records, one per aggregator

The spatial metadata table is the paper's Figure 4 structure — box id,
aggregator rank (from which the data file name derives), low corner, high
corner — extended with the per-file particle count (needed by LOD prefix
reads) and the optional per-file attribute min/max index the paper lists as
planned future work (§3.5), which powers range-query file pruning.
"""

from repro.format.datafile import (
    DATA_MAGIC,
    DATA_VERSION,
    RecoveryTrailer,
    compute_file_checksums,
    prefix_checksum_boundaries,
    read_particle_runs_into,
    read_recovery_trailer,
    write_data_file,
)
from repro.format.metadata import (
    META_MAGIC,
    META_VERSION,
    MetadataRecord,
    SpatialMetadata,
    data_file_name,
)
from repro.format.manifest import Manifest

__all__ = [
    "DATA_MAGIC",
    "DATA_VERSION",
    "META_MAGIC",
    "META_VERSION",
    "RecoveryTrailer",
    "data_file_name",
    "write_data_file",
    "read_particle_runs_into",
    "read_recovery_trailer",
    "compute_file_checksums",
    "prefix_checksum_boundaries",
    "MetadataRecord",
    "SpatialMetadata",
    "Manifest",
]
