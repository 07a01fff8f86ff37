"""Documentation fidelity: the README's code actually runs, docs exist."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


class TestReadme:
    def test_readme_exists_with_key_sections(self):
        text = (REPO / "README.md").read_text()
        for heading in ("## Install", "## Quickstart", "## Architecture"):
            assert heading in text

    def test_quickstart_snippet_executes(self, tmp_path):
        """Extract the first python block from README.md and run it."""
        text = (REPO / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
        assert blocks, "README has no python example"
        snippet = blocks[0].replace('"my_dataset"', repr(str(tmp_path / "ds")))
        proc = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]

    def test_design_and_experiments_exist(self):
        design = (REPO / "DESIGN.md").read_text()
        assert "Per-experiment index" in design
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for fig in ("Figure 1", "Figure 5", "Figure 6", "Figure 7",
                    "Figure 8", "Figure 9", "Figure 11"):
            assert fig in experiments, f"EXPERIMENTS.md missing {fig}"

    def test_architecture_doc_covers_stack(self):
        """docs/ARCHITECTURE.md names every layer of the access stack."""
        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        for term in ("Dataset", "IoExecutor", "ThreadedExecutor",
                     "RetryPolicy", "FileBackend", "child recorder"):
            assert term in text, term

    def test_format_spec_matches_code(self):
        spec = (REPO / "docs" / "FORMAT.md").read_text()
        from repro.format.datafile import DATA_MAGIC, HEADER_BYTES
        from repro.format.metadata import META_MAGIC

        assert DATA_MAGIC.decode() in spec
        assert META_MAGIC.decode() in spec
        assert HEADER_BYTES == 24  # the documented data-file header size

    def test_format_spec_documents_the_rule_table(self):
        """docs/FORMAT.md's table of scrub issues is ``ISSUES``, row for row,
        and its fix list is ``FIXES``, in order."""
        from repro.core.scrub import FIXES, ISSUES

        spec = (REPO / "docs" / "FORMAT.md").read_text()
        section = spec[spec.index("### Scrub issues and their repair"):]
        section = section[: section.index("\n## ")]
        rows = re.findall(r"^\| `([a-z-]+)` \| (yes|no) \| `([a-z-]+)` \|$", section, re.M)
        assert {code: (flag == "yes", fix) for code, flag, fix in rows} == {
            code: (kind.repairable, kind.fix) for code, kind in ISSUES.items()
        }
        assert len(rows) == len(ISSUES)
        assert re.findall(r"^\* `([a-z-]+)` —", section, re.M) == list(FIXES)


class TestPublicDocstrings:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro",
            "repro.mpi",
            "repro.core",
            "repro.core.writer",
            "repro.core.reader",
            "repro.core.lod",
            "repro.core.adaptive",
            "repro.dataset",
            "repro.format",
            "repro.io",
            "repro.io.executor",
            "repro.baselines",
            "repro.perf",
            "repro.query",
            "repro.viz",
            "repro.workloads",
            "repro.series",
            "repro.analysis",
            "repro.cli",
        ],
    )
    def test_module_docstrings(self, module_name):
        import importlib

        mod = importlib.import_module(module_name)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 20, module_name

    def test_public_classes_documented(self):
        from repro.core import (
            ProgressiveReader,
            SpatialReader,
            SpatialWriter,
            WriterConfig,
        )
        from repro.mpi import SimComm
        from repro.particles import ParticleBatch

        for cls in (SpatialWriter, SpatialReader, ProgressiveReader,
                    WriterConfig, SimComm, ParticleBatch):
            assert cls.__doc__ and cls.__doc__.strip(), cls.__name__
