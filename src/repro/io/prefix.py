"""A backend view rooted at a sub-path of another backend.

Lets one physical backend hold many datasets (e.g. one per timestep) while
every dataset-level component keeps using its canonical relative paths
("manifest.json", "data/file_0.pbin").
"""

from __future__ import annotations

from repro.io.backend import FileBackend, WrapperBackend


class PrefixBackend(WrapperBackend):
    """Delegates every operation to ``base`` under ``prefix/``."""

    def __init__(self, base: FileBackend, prefix: str):
        super().__init__(base)
        self.prefix = self._normalize(prefix)
        if not self.prefix:
            raise ValueError("prefix must be non-empty; use the base backend directly")

    def _forward(self, op: str, path: str, *args, **kwargs):
        path = self._normalize(path)
        full = f"{self.prefix}/{path}" if path else self.prefix
        return super()._forward(op, full, *args, **kwargs)

    def __repr__(self) -> str:
        return f"PrefixBackend({self.base!r}, prefix={self.prefix!r})"
