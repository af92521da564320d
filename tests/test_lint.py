"""Lint over the package sources, using only the standard library: no module
may import a name it never uses, no module-level private function, class or
alias may go unreferenced across ``src/dsr``, no public top-level function
or class may go unreferenced outside ``__init__.py``, no public method or
property may go unread as an attribute outside its own body, ``dsr.__all__``
lists exactly what the package imports, the slow per-graph paths (power
iteration, one-graph distance matrices, minimum cuts, isomorphism, canonical
forms and the canonical search behind them) are called only where they are
needed, ``dsr compute`` alone solving one graph at a time, the bipartition
scan is called only by the spectra suite's oracle, stacked solves are
grouped by order in one place (the cut-side suite groups the grid for
``min_cuts``) and go through one distance-to-Perron step, graph6 files are
read in one place (the CLI loader is the only caller of the decoder besides
the round-trip suite), and ``dsr.graphs`` alone decides how a stack is
chunked and unpacked from bit rows, which no module reads off a distance
stack and only ``dsr.graphs``, in ``dsr.verify`` the class table, the order
grouping of stacked solves and the cut-side suite, and in
``dsr.enumeration`` the parent tables and the stacked pass, which only
``_classes`` calls, unpack; every stacked kernel takes an adjacency stack,
and distance stacks are built only by the distance-to-Perron step, the
spectra oracle and ``distance_matrix``.  The bridge grid and ``dsr check``'s
placements are each drawn in one place, through one drawer of bridge
instances, and their bridge graphs are built in one place each, the
flattened graphs only by ``bridge_claims``; ``run_all_suites`` sets every
suite parameter; neither it nor any suite has a parameter default.  The
benchmark's tracer must also install on the package, since it wraps public
names by their import path."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dsr

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dsr"
TREES = {path.name: ast.parse(path.read_text(), str(path))
         for path in sorted(PACKAGE.glob("*.py"))}
MODULES = sorted(name for name in TREES if name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def references(tree: ast.AST, skip: set[int] = frozenset()) -> set[str]:
    """Names read in ``tree``, as bare names, attributes or imported names,
    leaving out the nodes whose ids are in ``skip``."""
    found = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """Module-level ``_name`` functions, classes and assignments."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        out += [(name, node) for name in names
                if name.startswith("_") and not name.startswith("__")]
    return out


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = TREES[module]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in read}
    assert not unused, f"{module}: unused imports {unused}"


@pytest.mark.parametrize("module", MODULES)
def test_every_private_definition_is_referenced(module):
    unreferenced = []
    for name, node in private_definitions(TREES[module]):
        inside = {id(inner) for inner in ast.walk(node)}
        if not any(name in references(tree, inside) for tree in TREES.values()):
            unreferenced.append(f"{name} (line {node.lineno})")
    assert not unreferenced, f"{module}: unreferenced {unreferenced}"


# public definitions that nothing in the package calls, with the reason each
# stays: ``isomorphic`` is bound by perfbench's tracer and is the tests'
# isomorphism oracle
UNCALLED_PUBLIC = {"isomorphic"}


def test_every_public_definition_is_referenced():
    modules = [TREES[module] for module in MODULES]
    unreferenced = []
    for module in MODULES:
        for node in TREES[module].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            inside = {id(inner) for inner in ast.walk(node)}
            if not any(node.name in references(tree, inside) for tree in modules):
                unreferenced.append(node.name)
    assert sorted(unreferenced) == sorted(UNCALLED_PUBLIC)


# public methods and properties that nothing in the package reads, with the
# reason each stays: ``Graph.degree`` is a public graph method that the tests
# read 16 times
UNREAD_PUBLIC_METHODS = {"graphs.py: Graph.degree"}


def test_every_public_method_is_referenced():
    # dunders are called by the language, not by name; a method or property
    # is read only as an attribute, so a local variable of the same name
    # does not count
    unread = []
    for module in MODULES:
        for cls in ast.walk(TREES[module]):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                inside = {id(inner) for inner in ast.walk(node)}
                if not any(isinstance(read, ast.Attribute) and read.attr == node.name
                           and id(read) not in inside
                           for tree in TREES.values() for read in ast.walk(tree)):
                    unread.append(f"{module}: {cls.name}.{node.name}")
    assert sorted(unread) == sorted(UNREAD_PUBLIC_METHODS), unread


def test_benchmark_tracer_installs():
    script = (
        "import json, sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "print(json.dumps(tracer.bindings))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    bindings = json.loads(done.stdout)
    assert bindings and all(count >= 1 for count in bindings.values()), bindings


def test_all_lists_exactly_the_imported_names():
    imported = set(imported_names(TREES["__init__.py"]))
    assert set(dsr.__all__) == imported
    assert dsr.__all__ == sorted(dsr.__all__)
    assert len(set(dsr.__all__)) == len(dsr.__all__)
    for name in dsr.__all__:
        getattr(dsr, name)


# where each slow path may be called: a module, or a (module, top-level
# function) pair.  Power iteration and one-graph distance matrices stay only
# for ``dsr compute``'s iterations column; the spectra suite checks the class
# table's stacks with a dense eigensolver and the Collatz-Wielandt bounds,
# and its stacked bipartition scan is the one caller of ``brute_force_min_cut``.
# ``perron_stack`` takes one order's stack and has one caller, the
# distance-to-Perron step ``_solve`` that the class table and
# ``_stacked_solve`` (which groups graphs to solve by order) share; the
# cut-side suite groups the grid's bridge graphs by order for ``min_cuts``.
# Bit rows are unpacked in one place, ``adjacency_stack``, which only
# ``dsr.graphs``, in ``dsr.verify`` the class table (once per order),
# ``_stacked_solve`` (once per order group) and the cut-side suite's grid
# stacks, and in ``dsr.enumeration`` the parent tables and the stacked pass
# (once per chunk of parents, the pass only for the candidates in which a
# non-cut vertex ties the new vertex's degree) call; every
# stacked kernel (distances, the bipartition scan and
# the cut kernel) takes a stack rather than unpacking its own.  Distance
# stacks are built by the distance-to-Perron step ``_solve``, the spectra
# oracle (from the table's adjacency) and the one-graph ``distance_matrix``.
# ``isomorphic`` stays public but is called nowhere in the package, since
# ``families.is_kpq`` recognizes kpq and canonical forms key the search's
# runner-up.  The canonical search itself, which also returns automorphism
# generators, is internal to isomorphism and to ``enumeration._classes``,
# which searches each parent for its generators and each candidate that the
# root colouring leaves open, and whose invariant key another open one
# shares, for its canonical rows.  Every enumeration candidate is judged by
# the stacked pass ``_judge``, called only by ``_classes``, one chunk of
# parents at a time; only ``_judge`` colours candidates and reads their
# vertex features, both stacked, so no module colours one graph at a time
# outside the search.
# The input reader is pinned too: every graph6 file, ``compute``'s source and
# ``search --corpus``, goes through ``cli._load_graphs``, the one caller of
# ``graph6_decode`` outside the codec's round-trip suite.  Minimum cuts come
# from two paths: one maximum-adjacency run per graph in ``dsr compute``, and
# the stacked Stoer-Wagner kernel, once per order in the class table (whose
# side masks ``suite_cut_sides`` reads) and once per grid order in
# ``suite_cut_sides``.  Each random
# input is drawn once: ``run_all_suites`` draws the bridge grid that both grid
# suites read, and ``dsr check`` keeps the placements that ``main`` drew to
# validate its parameters.  Both draw through ``bridge_instances``, the one
# caller of ``random_cross_edges``: the grid with one stream, ``dsr check``
# with one stream per placement.  Each bridge graph is built once:
# ``run_all_suites`` builds the grid's for both grid suites, and ``dsr check``
# builds its placements'.  ``bridge_claims`` alone builds flattened graphs,
# one per grid cell.
SLOW_CALLERS = {
    "perron": {("cli.py", "cmd_compute")},
    "distance_matrix": {("cli.py", "cmd_compute")},
    "brute_force_min_cut": {("verify.py", "suite_spectra_oracle")},
    "edge_connectivity": {("cli.py", "cmd_compute")},
    "min_cuts": {("verify.py", "_build_table"), ("verify.py", "suite_cut_sides")},
    "perron_stack": {("verify.py", "_solve")},
    "unpackbits": {("graphs.py", "adjacency_stack")},
    "adjacency_stack": {"graphs.py", ("verify.py", "_build_table"),
                        ("verify.py", "_stacked_solve"), ("verify.py", "suite_cut_sides"),
                        ("enumeration.py", "_parent_tables"), ("enumeration.py", "_judge")},
    "distance_stack": {("verify.py", "_solve"), ("verify.py", "suite_spectra_oracle"),
                       ("graphs.py", "distance_matrix")},
    "isomorphic": set(),
    "canonical_form": {"isomorphism.py", ("verify.py", "extremal_search")},
    "_canonical_search": {"isomorphism.py", ("enumeration.py", "_classes")},
    "_root_colours": {("enumeration.py", "_judge")},
    "_vertex_features": {("enumeration.py", "_judge")},
    "_judge": {("enumeration.py", "_classes")},
    "graph6_decode": {("cli.py", "_load_graphs"), ("verify.py", "suite_graph6_roundtrip")},
    "bridge_grid": {("verify.py", "run_all_suites")},
    "bridge_instances": {("verify.py", "bridge_grid"), ("cli.py", "main")},
    "random_cross_edges": {("verify.py", "bridge_instances")},
    "bridge_graph": {("verify.py", "run_all_suites"), ("cli.py", "cmd_check")},
    "bridge_graph_tilde": {("verify.py", "bridge_claims")},
}


def calls_by_owner(module: str) -> list[tuple[str, str | None, int]]:
    """(called name, enclosing top-level function or None, line) of every
    call by bare or attribute name in a module."""
    out = []
    for top in TREES[module].body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                out.append((name, owner, node.lineno))
    return out


@pytest.mark.parametrize("name", sorted(SLOW_CALLERS))
def test_slow_paths_only_where_allowed(name):
    allowed = SLOW_CALLERS[name]
    stray = [
        f"{module}:{line} in {owner}"
        for module in MODULES
        for called, owner, line in calls_by_owner(module)
        if called == name and module not in allowed and (module, owner) not in allowed
    ]
    assert not stray, f"{name}( called outside {sorted(map(str, allowed))}: {stray}"


def test_stack_entries_named_only_in_graphs():
    # every stacked kernel takes its chunks from ``graphs.stack_chunks``, so
    # patching ``dsr.graphs.STACK_ENTRIES`` resizes them all
    stray = [module for module in MODULES
             if module != "graphs.py" and "STACK_ENTRIES" in references(TREES[module])]
    assert not stray, f"STACK_ENTRIES named outside graphs.py: {stray}"


def test_no_adjacency_from_distances():
    # ``distance_stack(...) == 1`` runs a full breadth-first search for what
    # ``adjacency_stack`` reads off the bit rows
    found = [
        f"{module}:{node.lineno}"
        for module in MODULES for node in ast.walk(TREES[module])
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
        and getattr(node.left.func, "id", None) == "distance_stack"
        and any(isinstance(op, ast.Eq) for op in node.ops)
    ]
    assert not found, f"adjacency read from distance_stack: {found}"


def test_run_all_suites_sets_every_suite_parameter():
    # a suite knob has the one value ``run_all_suites`` gives it: no suite
    # parameter has a default, nor has ``run_all_suites``'s own, and every
    # call there passes each suite parameter
    top = {node.name: node for node in TREES["verify.py"].body
           if isinstance(node, ast.FunctionDef)}
    suites = {name: node.args for name, node in top.items() if name.startswith("suite_")}
    checked = {**suites, "run_all_suites": top["run_all_suites"].args}
    defaults = [name for name, args in checked.items()
                if args.defaults or any(args.kw_defaults)]
    assert not defaults, f"parameters with defaults: {defaults}"
    passed = {
        node.func.id: len(node.args) + len(node.keywords)
        for node in ast.walk(top["run_all_suites"])
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in suites
    }
    assert passed == {name: len(args.posonlyargs + args.args + args.kwonlyargs)
                      for name, args in suites.items()}
