"""Every public name in ``src`` has a caller outside the test suite.

An AST scan lists the public functions, classes and methods defined in
``src/repro`` and looks for their names anywhere in ``src``,
``examples``, ``benchmarks``, ``perfbench`` and ``tools``: as a name, an
attribute, or an identifier-like string (hooks are dispatched by their
method name).  A name's own definition, ``__all__`` entries and import
statements do not count.  A public name that nothing references is
dead code, unless the allowlist below says why it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "examples", "benchmarks", "perfbench", "tools")

#: ``module:qualname`` -> why it stays although nothing outside tests
#: references it.
ALLOWED = {
    # registered policies: built by name through get_policy
    "repro.core.cdp:CDPPolicy": "registered policy ('cdp')",
    "repro.core.cdp:CDPFullPolicy": "registered policy ('cdp-full')",
    "repro.core.chunked:ChunkedCDPPolicy": "registered policy ('cdp-chunked')",
    "repro.core.hetero:HeteroLPTPolicy": "registered policy ('hetero-lpt')",
    "repro.core.hetero:HeteroCPLX": "registered policy ('hetero-cplx')",
    "repro.core.hetero:HeteroILPPolicy": "registered policy ('hetero-ilp')",
    # hooks: composed onto an engine by users
    "repro.engine.hooks:TelemetrySpoolHook":
        "hook class: docs/telemetry.md's epoch spool for custom stacks",
    # API edge: documented entry points and client verbs
    "repro.amr.block:BlockCostTracker.forget_except":
        "API edge: tracker pruning documented in docs/api.md",
    "repro.amr.hydro:sod_initial_state":
        "API edge: the Sod initial condition beside blast_initial_state",
    "repro.amr.hydro:EulerSolver2D.total_conserved":
        "API edge: the solver's conservation diagnostic",
    "repro.core.context:PlacementContext.homogeneous":
        "API edge: documented context constructor (README, architecture)",
    "repro.core.ilp:makespan_lower_bound":
        "API edge: the identical-ranks bound documented in docs/api.md",
    "repro.mesh.geometry:BlockIndex.child_number": "API edge: block index arithmetic",
    "repro.mesh.geometry:RootGrid.root_blocks": "API edge: root grid iteration",
    "repro.mesh.geometry:blocks_overlap": "API edge: block geometry predicate",
    "repro.mesh.octree:OctreeForest.from_leaves":
        "API edge: build a forest from an explicit leaf set",
    "repro.mesh.refinement:enforce_two_one_balance":
        "API edge: the 2:1 closure documented in docs/api.md",
    "repro.mesh.sfc:block_key": "API edge: one-block key packing documented in docs/api.md",
    "repro.service.client:ServiceClient.tenant_status":
        "API edge: client verb for the service's tenant status",
    "repro.telemetry.columnar:ColumnTable.sort_by": "API edge: ColumnTable method",
    "repro.telemetry.columnar:ColumnTable.to_rows": "API edge: ColumnTable method",
    "repro.telemetry.compare:compare_runs":
        "API edge: documented run comparison; ROADMAP item 3 decides its fate",
    "repro.resilience.monitor:HealthMonitor.n_alerts":
        "API edge: monitor summary read after a run",
    "repro.resilience.monitor:HealthMonitor.flagged_nodes":
        "API edge: monitor summary read after a run",
    # test oracles: kept for tests that cross-check production code
    "repro.amr.hydro:EulerState":
        "test oracle: primitive state the hydro tests round-trip",
    "repro.amr.hydro:EulerState.conserved":
        "test oracle: conversion checked against the solver's _primitives",
    "repro.core.cdp:cdp_optimal_makespan":
        "test oracle: exact contiguous makespan bounding CDP",
    "repro.mesh.geometry:RootGrid.wrap":
        "test oracle: periodic wrap used by tests/mesh_reference.py",
    "repro.mesh.neighbors:NeighborKind.from_direction":
        "test oracle: used by tests/mesh_reference.py",
    "repro.mesh.neighbors:NeighborGraph.degree":
        "test oracle: per-block degree the neighbor tests check",
    "repro.telemetry.plan:required_columns":
        "test oracle: projection pushdown check",
}


def _public_defs():
    """(``module:qualname``, name) of every public def in ``src/repro``."""
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            yield f"{module}:{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not sub.name.startswith("_"):
                        yield f"{module}:{node.name}.{sub.name}", sub.name


def _referenced_names():
    """Names, attributes and identifier strings outside ``__all__``."""
    seen = set()
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text())
            exports = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets
                ):
                    exports.update(id(n) for n in ast.walk(node.value))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.isidentifier()
                    and id(node) not in exports
                ):
                    seen.add(node.value)
    return seen


def test_every_public_name_is_referenced_or_allowed():
    seen = _referenced_names()
    unreferenced = {q for q, name in _public_defs() if name not in seen}
    assert sorted(unreferenced - ALLOWED.keys()) == []


def test_allowlist_has_no_stale_entries():
    seen = _referenced_names()
    defined = dict(_public_defs())
    stale = [q for q in ALLOWED if q not in defined or defined[q] in seen]
    assert stale == []
