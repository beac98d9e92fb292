"""Static checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cescop"


def _unread_parameters(path: Path) -> list:
    """(function, parameter) for each parameter of a public module-level
    function in path that its body never reads."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_"):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.name, p) for p in params if p not in read]
    return found


def test_public_functions_read_every_parameter():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    unread = {path.name: _unread_parameters(path) for path in paths}
    assert {k: v for k, v in unread.items() if v} == {}


def _error_classes() -> set:
    """Names of the CescopError subclasses that errors.py defines."""
    names = {"CescopError"}
    for node in ast.parse((SRC / "errors.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in names for b in node.bases):
            names.add(node.name)
    return names - {"CescopError"}


def _raised_names(path: Path) -> set:
    """Names in path's raise statements: X in raise X, raise X(...) and
    raise m.X(...)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                found.add(exc.attr)
    return found


def test_every_error_class_is_raised():
    classes = _error_classes()
    assert "SpecInvalid" in classes
    raised = set().union(*(_raised_names(path) for path in SRC.glob("*.py")))
    assert sorted(classes - raised) == []


def test_cli_imports_no_private_name():
    tree = ast.parse((SRC / "cli.py").read_text())
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("cescop"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_only_spaces_builds_norm_plans():
    # a spec keeps its own plans (spaces._plan): nothing else builds one
    def builds(path):
        return [node for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call) and "_Plan" in (getattr(node.func, "id", None),
                                                              getattr(node.func, "attr", None))]

    assert {path.name for path in SRC.glob("*.py") if builds(path)} == {"spaces.py"}


def test_only_the_oracle_reads_the_screen():
    # a screened norm carries no bound, so no reported number may come
    # from one: only the oracle calls _Plan.screen, to rank candidates,
    # and it reports exact ratios
    def calls(path):
        return [node for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "screen"]

    assert {path.name for path in SRC.glob("*.py") if calls(path)} == {"oracle.py"}


def test_only_realfun_builds_interval_grids():
    # the weight gates and checks read the window's cumulative norms
    # (realfun._log_norms_at); only realfun's integrals and esssup take a
    # grid on an interval
    def builds(path):
        return [node for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call) and "log_nodes" in (getattr(node.func, "id", None),
                                                                  getattr(node.func, "attr", None))
                and len(node.args) + len(node.keywords) > 1]

    assert {path.name for path in SRC.glob("*.py") if builds(path)} == {"realfun.py"}


def test_a_family_keeps_its_own_scores():
    # no public function takes a score dict; the family holds them
    # (oracle.CandidateFamily._scores), and only the oracle reads them
    def public_params(path):
        return [(node.name, p.arg) for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")
                for p in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)]

    def reads(path):
        return [node for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute) and node.attr == "_scores"]

    paths = sorted(SRC.glob("*.py"))
    assert [(path.name, fn) for path in paths for fn, p in public_params(path)
            if p == "scores"] == []
    assert {path.name for path in paths if reads(path)} == {"oracle.py"}


def _named(node):
    """The name a Name or Attribute node reads, else None."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _layer_names() -> set:
    """The names perfbench/layers.py binds: those its TARGETS list, for
    any module, and those its code reads."""
    tree = ast.parse((SRC.parents[1] / "perfbench" / "layers.py").read_text())
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    listed = {name for names in ast.literal_eval(targets).values() for name in names}
    return listed | {_named(n) for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}


def _uncalled(src: Path) -> list:
    """(module, name) for each public module-level def or class of the
    package in src that no module of it names outside its own definition,
    and that perfbench/layers.py does not bind.  A re-export in
    __init__.py is an import, not a name read, so it does not count."""
    trees = {path.name: ast.parse(path.read_text()) for path in src.glob("*.py")}
    defs = [(module, node) for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]
    assert defs
    # a name read inside its own definition does not call it
    own = {id(n) for _, d in defs for n in ast.walk(d) if _named(n) == d.name}
    named = {_named(n) for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute)) and id(n) not in own}
    return sorted((module, d.name) for module, d in defs
                  if d.name not in named | _layer_names())


def test_every_public_name_has_a_caller(tmp_path):
    # a public name that only tests read is API kept for tests
    assert _uncalled(SRC) == []
    # the rule sees an unused public def, re-exported or not
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    spaces, init = tmp_path / "spaces.py", tmp_path / "__init__.py"
    spaces.write_text(spaces.read_text() + "\n\ndef unused_helper():\n    return unused_helper\n")
    init.write_text(init.read_text() + "from .spaces import unused_helper\n")
    assert _uncalled(tmp_path) == [("spaces.py", "unused_helper")]
