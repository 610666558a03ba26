"""repro.analysis — ALPS protocol linter and deadlock diagnosis.

Two complementary halves:

* **Static** (:mod:`.static`): a pure-AST linter over ``@manager_process``
  bodies — never imports the checked code — reporting typed
  :class:`~repro.analysis.findings.Finding` records with stable
  ``ALPxxx`` codes (catalogue in :mod:`.findings` and DESIGN.md §10).
  CLI: ``python -m repro.analysis`` / ``tools/alpslint.py``.
* **Runtime** (:mod:`repro.kernel.waitgraph`, re-exported here): the
  structured wait-for graph attached to ``DeadlockError.wait_for`` at
  quiescence, and the opt-in :class:`LiveDeadlockDetector` that flags
  circular waits and exhausted hidden pools *before* quiescence.

A third, **whole-program** half (:mod:`.wholeprogram`) bridges them: a
cross-object static call graph predicts the wait cycles (ALP120) the
runtime graph would only discover once stuck, and checks that entries
declared ``compatible=`` touch disjoint attributes (ALP121).  CLI:
``python -m repro.analysis --whole-program [--dot] [--sarif FILE]``.

The two halves share the code namespace: a defect the linter reports as
``ALP104`` raises ``ProtocolError(code="ALP104")`` when provoked at
runtime.
"""

from ..kernel.waitgraph import (
    PoolReport,
    WaitEdge,
    WaitForSnapshot,
    build_wait_graph,
)
from .dot import to_dot
from .findings import CATALOGUE, Check, Finding, Severity
from .watchdog import LiveDeadlockDetector
from .sarif import render_sarif, to_sarif
from .static import (
    ManagerLinter,
    lint_paths,
    lint_source,
)
from .wholeprogram import (
    analyze_paths,
    build_call_graph,
    build_program,
    callgraph_to_dot,
    check_interference,
    entry_effects,
    predict_cycles,
)

__all__ = [
    "CATALOGUE",
    "Check",
    "Finding",
    "LiveDeadlockDetector",
    "ManagerLinter",
    "PoolReport",
    "Severity",
    "WaitEdge",
    "WaitForSnapshot",
    "analyze_paths",
    "build_call_graph",
    "build_program",
    "build_wait_graph",
    "callgraph_to_dot",
    "check_interference",
    "entry_effects",
    "lint_paths",
    "lint_source",
    "predict_cycles",
    "render_sarif",
    "to_dot",
    "to_sarif",
]
