"""The end-to-end, layer-attributed benchmark (see README.md in this directory).

Imported as the package ``e2e`` with ``benchmarks/`` on ``sys.path``:
``run.py`` arranges that for itself and for its worker subprocesses, and
pytest does it for ``test_e2e_smoke.py``.  Importing by package keeps
``trace.py`` from shadowing the standard library's ``trace``.
"""
