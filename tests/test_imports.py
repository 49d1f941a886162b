"""Lint: every name a library or test module imports is used by that module.

Names listed in __all__ count as used (re-exports), and an import line
marked ``# noqa: F401`` is skipped.  Every module-level private name
(one leading underscore, not a dunder), and every private method of a
module-level class, is read by the library outside its own definition;
tests and perfbench do not count as readers.  Every module-level public
function or class, and every public method or property of a
module-level class, is read by the library or by the perfbench scripts,
save a short allow-list of references and criteria, and every name in
``__all__`` resolves on the package.  Also: importing
the library and running an exact CLI command leave scipy unloaded.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partition_lab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "partition_lab"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "import os\nfrom math import pi, tau\nimport sys  # noqa: F401\n__all__ = ['tau']\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 2)"]


# the test modules too: their file names (test_*.py) never clash with the library's
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")),
                         ids=lambda p: p.name)
def test_library_modules_have_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _bound(func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> set[str]:
    """The names a function binds in its own scope: its arguments and the names it stores."""
    names = {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)}
    todo = list(func.body) if isinstance(func.body, list) else [func.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _definitions_and_reads(sources: dict[str, str]) -> tuple[list[tuple[str, str, bool]], set[str]]:
    """Definitions as (module, name, is function or class), and every name read.

    The definitions are the module-level names and the methods of
    module-level classes other than dunders, named Class.method.  A read
    is a name or attribute access; one inside the name's own definition
    (a recursive call) does not count, nor does a name read in a function
    that binds it itself (an argument or a store), as that reads the
    local.  Reads go by name alone, so a method counts as read wherever
    an attribute of its name is read.
    """
    defined = []
    reads = set()

    def read(node: ast.AST, own: set[str], local: frozenset[str] = frozenset()) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = local | _bound(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in own | local:
                reads.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in own:
            reads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            read(child, own, local)

    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            is_def = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def:
                names = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                names = set()
            defined.extend((module, name, is_def) for name in sorted(names))
            if not isinstance(stmt, ast.ClassDef):
                read(stmt, names)
                continue
            for part in (*stmt.decorator_list, *stmt.bases, *stmt.keywords, *stmt.body):
                method = isinstance(part, (ast.FunctionDef, ast.AsyncFunctionDef)) and not part.name.startswith("__")
                if method:
                    defined.append((module, f"{stmt.name}.{part.name}", True))
                read(part, names | {part.name} if method else names)
    return defined, reads


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants, and private methods, that no module reads."""
    defined, reads = _definitions_and_reads(sources)
    return [
        f"{module}.{name}"
        for module, name, _ in defined
        if _is_private(short := name.rsplit(".", 1)[-1]) and short not in reads
    ]


def uncalled_public_names(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Public functions, classes and methods of sources that neither sources nor readers read."""
    defined, reads = _definitions_and_reads({**sources, **readers})
    return [
        f"{module}.{name}"
        for module, name, is_def in defined
        if module in sources and is_def and not (short := name.rsplit(".", 1)[-1]).startswith("_")
        and short not in reads
    ]


def test_unread_private_names_are_found():
    sources = {
        "a": "_K = 1\n__version__ = '1'\ndef _walk(n):\n    return _walk(n - 1) if n else _K\nclass _Spare: pass\n",
        "b": "from a import _helper\nimport a\ndef f():\n    return a._K\n",
        "c": ("class Rng:\n    def __init__(self):\n        self._i = 0\n"
              "    def draw(self):\n        return self._next()\n"
              "    def _next(self):\n        return self._i\n"
              "    def _spin(self, n):\n        return self._spin(n - 1) if n else 0\n"
              "    def _spare(self): pass\n"),
    }
    assert unread_private_names(sources) == ["a._walk", "a._Spare", "c.Rng._spin", "c.Rng._spare"]


def test_library_private_names_are_read():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_uncalled_public_names_are_found():
    sources = {
        "a": "LIMIT = 1\ndef walk(n):\n    return walk(n - 1) if n else helper()\ndef helper(): pass\nclass Spare: pass\n",
        # a function's own argument or local is no read of the same-named
        # function, and a nested function's argument does not hide a read
        # in the function around it
        "b": ("def rank(x): pass\ndef order(): pass\n"
              "def cover(xs, order):\n    rank = len(xs)\n    sort = lambda rank: rank\n    return sort(rank), order\n"
              "def tally(xs):\n    def inner(order): return order\n    return inner(xs), order()\n"),
    }
    # a method's own recursive call and a dunder method are no reads and
    # no definitions; another method's call is a read
    sources["c"] = ("class Box:\n    def __len__(self): return self.size()\n"
                    "    def size(self): return 0\n"
                    "    def spare(self, n): return self.spare(n - 1) if n else 0\n")
    assert uncalled_public_names(sources, {}) == [
        "a.walk", "a.Spare", "b.rank", "b.cover", "b.tally", "c.Box", "c.Box.spare"]
    assert uncalled_public_names(sources, {"bench": "import a, c\na.walk(3)\nc.Box().spare(1)\n"}) == [
        "a.Spare", "b.rank", "b.cover", "b.tally"]


# Public names that no library module or perfbench script reads, kept on purpose
KEPT_WITHOUT_CALLER = {
    "deletion.bulk_delete": "frequency-level deletion, the abstract's second result",
    "eppf.eppf_from_moments": "the stick-moment route that tests check eppf against",
    "eppf.first_color_count_law": "acceptance criterion 11",
    "eppf.residual_moment_family": "the moments behind eppf_from_moments",
    "oracle.ExactLaw.perturbed": "criterion 03's perturbed-law control",
    "oracle.record_independence_residual": "the closed-form check of tau_perm_law(x, 0), golden-pinned",
}


def test_public_names_have_a_caller():
    assert [name for name in partition_lab.__all__ if not hasattr(partition_lab, name)] == []
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = {f"perfbench/{path.stem}": path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))}
    assert sorted(uncalled_public_names(sources, readers)) == sorted(KEPT_WITHOUT_CALLER)


def test_import_and_exact_cli_do_not_load_scipy():
    # scipy.stats takes about a second to import; only chi_square and
    # ks_two_sample need it, and they import it when called
    code = (
        "import sys, partition_lab\n"
        "from partition_lab import cli\n"
        "assert cli.main(['eppf', '--alpha', '0', '--theta', '1', '--lambda', '2,1']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["1/6", "[]"]
