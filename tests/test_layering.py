"""The dependency rule of ``src/repro``, checked on the import graph.

Dependencies point one way — core packages → :mod:`repro.pipeline` →
:mod:`repro.lab` / :mod:`repro.serve` — and no package reaches into
another's underscore names.  Every ``import`` statement counts, late
ones inside functions included; only ``if TYPE_CHECKING:`` blocks are
exempt (they never run).
"""

import ast
import dataclasses
import functools
import importlib
import os
import subprocess
import sys

from repro.core.memo import memo_stats
from repro.network import Topology

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(REPO, "src")


def _runtime_nodes(node):
    """Every AST node below ``node`` outside ``if TYPE_CHECKING:``."""
    for child in ast.iter_child_nodes(node):
        if (
            isinstance(child, ast.If)
            and isinstance(child.test, ast.Name)
            and child.test.id == "TYPE_CHECKING"
        ):
            continue
        yield child
        yield from _runtime_nodes(child)


def _modules():
    """``(dotted module name, its package, parsed source)`` per file."""
    for folder, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(folder, filename)
            parts = os.path.relpath(path, SRC)[:-3].split(os.sep)
            package = parts[:-1]
            if parts[-1] == "__init__":
                parts = package
            with open(path, encoding="utf-8") as fh:
                yield ".".join(parts), package, ast.parse(fh.read(), path)


def _imports():
    """``(importer, imported dotted name)`` for every runtime import of
    something inside ``repro`` — ``from a.b import c`` yields ``a.b.c``."""
    edges = []
    for module, package, tree in _modules():
        for node in _runtime_nodes(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = package[: len(package) - node.level + 1] if node.level else []
                base = base + (node.module.split(".") if node.module else [])
                targets = [".".join(base + [alias.name]) for alias in node.names]
            else:
                continue
            edges.extend(
                (module, target)
                for target in targets
                if target.split(".")[0] == "repro"
            )
    return edges


IMPORTS = _imports()


def _subpackage(dotted):
    """``repro.lab.runner.x`` -> ``lab``; ``repro.pipeline.x`` -> ``pipeline``."""
    parts = dotted.split(".")
    return parts[1] if len(parts) > 1 else ""


def test_the_walk_sees_the_tree():
    importers = {importer for importer, _target in IMPORTS}
    assert {"repro.pipeline", "repro.lab.runner", "repro.serve.session",
            "repro.costmodel.model"} <= importers
    # Late imports are walked too (the CLI imports the --batch pass lazily).
    assert ("repro.lab.__main__", "repro.lab.batch.run_suite_batched") in IMPORTS


def test_no_underscore_names_cross_a_package_boundary():
    offenders = [
        (importer, target)
        for importer, target in IMPORTS
        if target.rsplit(".", 1)[-1].startswith("_")
        and _subpackage(importer) != _subpackage(target)
    ]
    assert offenders == []


def test_only_lab_and_serve_import_lab_or_serve():
    offenders = [
        (importer, target)
        for importer, target in IMPORTS
        if _subpackage(target) in ("lab", "serve")
        and _subpackage(importer) not in ("lab", "serve")
    ]
    assert offenders == []


def test_lab_imports_nothing_from_serve():
    offenders = [
        (importer, target)
        for importer, target in IMPORTS
        if _subpackage(importer) == "lab" and _subpackage(target) == "serve"
    ]
    assert offenders == []


def test_only_the_runner_executes_scenarios():
    # run_suite is the one suite loop: no other module, the --batch pass
    # included, imports its worker entry point.
    offenders = [
        (importer, target)
        for importer, target in IMPORTS
        if target == "repro.lab.runner._execute_with_context"
    ]
    assert offenders == []


def test_serve_needs_only_the_specs_and_results_of_the_lab():
    offenders = [
        (importer, target)
        for importer, target in IMPORTS
        if _subpackage(importer) == "serve"
        and _subpackage(target) == "lab"
        and not target.startswith(("repro.lab.spec.", "repro.lab.results."))
    ]
    assert offenders == []


def test_serve_stacks_nothing():
    # One request path: the stacked solve and the signature that groups
    # for it belong to the lab's --batch oracle alone.
    offenders = [
        (importer, target)
        for importer, target in IMPORTS
        if _subpackage(importer) == "serve"
        and target.rsplit(".", 1)[-1]
        in ("solve_stacked", "structural_signature")
    ]
    assert offenders == []


def test_the_service_publishes_nothing_and_forks_nothing():
    # One way to serve: one solver thread over the warm sessions.  The
    # service takes only the error type from the shared-memory store,
    # and no process pool.
    service = ("repro.serve.server", "repro.serve.session")
    assert sorted(
        (importer, target) for importer, target in IMPORTS
        if importer in service and target.startswith("repro.serve.store")
    ) == [
        ("repro.serve.server", "repro.serve.store.ServeError"),
        ("repro.serve.session", "repro.serve.store.ServeError"),
    ]
    pools = []
    for module, _package, tree in _modules():
        if module not in service:
            continue
        for node in _runtime_nodes(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            pools.extend(
                (module, name) for name in names
                if name.startswith("concurrent.futures.process")
                or name.endswith("ProcessPoolExecutor")
            )
    assert pools == []


def test_lab_and_serve_get_their_planner_from_the_pipeline():
    # ``pipeline.plan_scenario`` is the one site that turns a
    # materialized query into a backend-converted Planner.
    offenders = [
        (module, node.lineno)
        for module, _package, tree in _modules()
        if _subpackage(module) in ("lab", "serve")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Planner"
    ]
    assert offenders == []


def test_wire_format_constants_are_assigned_once_in_the_network_package():
    sites = {"HEADER_BITS": [], "EOS_BITS": []}
    for module, _package, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in sites:
                        sites[target.id].append(module)
    assert sites == {
        "HEADER_BITS": ["repro.network.program"],
        "EOS_BITS": ["repro.network.program"],
    }


def test_the_count_plane_takes_only_the_wire_constants_from_the_network():
    # The timing recurrence is the engines' independent oracle
    # (docs/costmodel.md, "Independence"): it shares the two fixed
    # charges of the wire format with them and none of their round logic.
    assert sorted(
        target for importer, target in IMPORTS
        if importer == "repro.costmodel.timing"
        and _subpackage(target) == "network"
    ) == ["repro.network.program.EOS_BITS", "repro.network.program.HEADER_BITS"]


def test_a_protocol_plan_holds_no_relations_and_no_solver():
    # Model 2.1: H, G and the protocol are common knowledge, the
    # relations are private inputs.  Whoever runs a plan brings its own
    # query and solver, so nothing can read them off ``plan`` /
    # ``protocol_plan`` / ``report.protocol.plan``.
    from repro.protocols import ProtocolPlan

    fields = {field.name for field in dataclasses.fields(ProtocolPlan)}
    assert not fields & {"query", "solver"}
    offenders = [
        (module, node.lineno)
        for module, _package, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in ("query", "solver")
        and getattr(
            node.value, "id", getattr(node.value, "attr", "")
        ).endswith("plan")
    ]
    assert offenders == []


def test_a_run_records_what_the_count_plane_predicts():
    # Measured = predicted = traced is checked on four numbers; an engine
    # that counts a fifth (messages, a delivery round, a second edge map)
    # keeps code no gate reads.  Besides the players' outputs, a run's
    # record holds exactly the count plane's fields.
    from repro.costmodel import CostVector
    from repro.network.simulator import SimulationResult

    def names(cls):
        return {field.name for field in dataclasses.fields(cls)}

    assert names(SimulationResult) - {"outputs"} == names(CostVector)


def test_the_memos_are_the_seven_with_traffic_figures():
    # docs/dataplane.md holds the hits/misses table that pays for each
    # of these; a new memo brings its own row in the PR that adds it.
    seven = {
        "bounds.bcq",
        "costmodel.predicted_metrics",
        "decomposition.best_ghd",
        "pipeline.materialized",
        "pipeline.protocol_plan",
        "runner.certification",
        "steiner.pack",
    }
    declared = [
        (module, node.args[0].value)
        for module, _package, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "LRUMemo"
    ]
    assert sorted(name for _module, name in declared) == sorted(seven)
    for module, _name in declared:
        importlib.import_module(module)
    # (test files name their own scratch memos ``test.*``.)
    live = {name for name in memo_stats() if not name.startswith("test.")}
    assert live == seven


def _identifiers(tree):
    """Every identifier a module mentions — names, attributes, imported
    modules and aliases, definitions — with its line."""
    for node in ast.walk(tree):
        for field in ("id", "attr", "module", "name", "asname"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                yield getattr(node, "lineno", 0), value


def test_planning_stays_on_plain_adjacency():
    # G, its builders, routes, MinCut(G, K), the Steiner candidate
    # generator and the Lemma E.2 harvest walk plain dicts; the networkx
    # routines they replaced live on as references in benchmarks/ and
    # tests only, so no result can depend on the installed networkx (or
    # quietly go back through a per-state Graph.copy()).
    assert [
        (module, found)
        for module, _package, tree in _modules()
        for found in _identifiers(tree)
        if found[1].startswith("networkx")
    ] == []
    trees = {module: tree for module, _package, tree in _modules()}
    banned = {"steiner_tree", "dfs_edges", "minimum_cut", "copy"}
    assert [
        found for found in _identifiers(trees["repro.network.steiner"])
        if found[1] in banned
    ] == []
    assert not hasattr(Topology.line(2), "graph")


@functools.lru_cache(maxsize=None)
def _loaded_by_the_product():
    """``sys.modules`` of a fresh interpreter that imports the entry
    points.  Every ledger child, pool worker and CLI call is one: what
    the entry points import is paid per process."""
    code = (
        "import sys; import repro.lab.runner, repro.lab, repro.serve, "
        "repro.pipeline; print('\\n'.join(sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    return frozenset(out.split())


def test_the_product_never_imports_networkx():
    assert "networkx" not in _loaded_by_the_product()


def test_the_product_loads_no_module_it_does_not_call():
    # Oracles (Yannakakis), the Table 1 MCM row and its §6 toolkit, and
    # the PGM / MPC layers are imported by module path from tests,
    # benches and examples; no package re-export drags them in.
    never = {
        "repro.protocols.trivial",
        "repro.network.flows",
        "repro.faq.datalog",
        "repro.protocols.mcm",
        "repro.linalg",
        "repro.linalg.f2",
        "repro.faq.yannakakis",
        "repro.entropy",
        "repro.pgm",
        "repro.network.mpc",
    }
    loaded = _loaded_by_the_product()
    assert "repro.protocols.faq_protocol" in loaded
    assert sorted(never & loaded) == []


def _python_files(*tops):
    for top in tops:
        for folder, _dirs, files in os.walk(os.path.join(REPO, top)):
            for filename in sorted(files):
                if filename.endswith(".py"):
                    yield os.path.join(folder, filename)


def test_every_top_level_name_has_a_caller():
    # A top-level def or class that only its own definition, ``__all__``
    # and a package re-export name is code no gate runs.  A use anywhere
    # counts: its own module (private helpers), tests, benches, examples.
    named = set()
    for path in _python_files("src", "tests", "benchmarks", "examples"):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        reexports = path.startswith(SRC) and path.endswith("__init__.py")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias) and not reexports:
                named.add(node.name.rsplit(".", 1)[-1])
    defined = [
        (module, node.name)
        for module, _package, tree in _modules()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    assert len(defined) > 300
    assert [found for found in defined if found[1] not in named] == []


def test_the_network_package_accounts_on_plain_ints():
    # A round is charged one way, in dicts of Python ints, by both
    # engines; array accounting (and with it a second code path and a
    # threshold between the two) cannot drift back in unnoticed.
    assert [
        (module, found)
        for module, _package, tree in _modules()
        if _subpackage(module) == "network"
        for found in _identifiers(tree)
        if found[1].split(".")[0] == "numpy"
    ] == []
    assert [
        (importer, target) for importer, target in IMPORTS
        if _subpackage(importer) == "network"
        and _subpackage(target) == "kernels"
    ] == []


def test_one_columnar_kernel_per_job():
    # The join step, the ⊕ group-by, the key probe, the int64 product
    # guard and the dictionary array view are written once, in
    # semiring/columnar.py, for the operator solver, the compiled
    # solver's fused step and the compiled engine's Phase B alike (the
    # table is in docs/architecture.md): what a columnar join, group-by
    # or overflow check does is decided in one module.
    trees = {module: tree for module, _package, tree in _modules()}
    home = "repro.semiring.columnar"

    def mentioning(names):
        return {
            module
            for module, tree in trees.items()
            if not module.startswith("repro.kernels")
            for _line, found in _identifiers(tree)
            if found in names
        }

    assert mentioning({"match_indices", "sort_groups_key", "grouped_reduce"}) == {home}
    assert mentioning({"INT64_MAX"}) == {home}
    # No sort, probe, reduction or array view of their own beside them.
    copies = {"argsort", "lexsort", "reduceat", "flatnonzero", "asarray", "unique"}
    assert [
        (module, found)
        for module in ("repro.faq.executor", "repro.protocols.compiler")
        for found in _identifiers(trees[module])
        if found[1] in copies
    ] == []


def test_no_assert_statements_under_src():
    # ``python -O`` strips them: a check the product relies on raises a
    # named error instead.
    assert [
        (module, node.lineno)
        for module, _package, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ] == []


def test_one_elimination_loop():
    # Both solvers run the elimination loop of
    # ``faq/variable_elimination.py``; a plan IR beside it (op classes,
    # a plan type, lowerings, an interpreter) would be a second copy of
    # that loop. The order cache is filled in one place.
    trees = {module: tree for module, _package, tree in _modules()}
    defined = [
        (module, node.name)
        for module, tree in trees.items()
        if _subpackage(module) == "faq"
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        and (
            (isinstance(node, ast.ClassDef) and node.name.endswith("Op"))
            or node.name in ("QueryPlan", "execute_plan")
            or node.name.startswith("lower_")
        )
    ]
    assert defined == []
    puts = [
        module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "put"
        and getattr(node.func.value, "id", getattr(node.func.value, "attr", None))
        == "PLAN_CACHE"
    ]
    assert puts == ["repro.faq.plan"]
