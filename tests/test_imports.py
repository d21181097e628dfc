"""Every name a package module imports is used in that module, every
module-level private function or class is used somewhere in the package,
every public definition is named by code other than the tests, and every
default of a public function or public dataclass field is set by one call of
the program's own code and left unset by another."""

import ast
import os
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "distatlas"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_name():
    source = "import os\nfrom json import dumps, loads\nprint(loads)\n"
    assert unused_imports(source) == ["dumps (line 2)", "os (line 1)"]


def names_used(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_privates(sources: dict) -> list:
    """Module-level _private functions and classes that no code outside their own body names."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = sum((names_used(tree) for tree in trees.values()), Counter())
    return sorted(f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_") and not node.name.startswith("__")
                  and used[node.name] == names_used(node)[node.name])


def test_every_private_definition_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_checker_flags_an_unreferenced_private():
    sources = {"a.py": "def _used():\n    pass\n\n"
                       "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                       "class _Dead:\n    pass\n",
               "b.py": "from a import _used\n_used()\n"}
    assert unreferenced_privates(sources) == ["a.py:_Dead", "a.py:_recursive"]


def public_definitions(tree):
    """(label, node) of a module's public functions and classes and their public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def unnamed_publics(sources: dict, callers) -> list:
    """Public definitions of the package sources that neither they nor callers name
    outside the definition's own body.

    Matching is by name, bare or as an attribute, so a definition whose
    name is also some other object's attribute counts as named: a module
    function ``entropy`` escapes through ``SeriesStats.entropy``, say.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = sum((names_used(tree) for tree in [*trees.values(), *map(ast.parse, callers)]),
               Counter())
    return sorted(f"{module}:{label}" for module, tree in trees.items()
                  for label, node in public_definitions(tree)
                  if used[node.name] == names_used(node)[node.name])


def test_every_public_definition_is_named_outside_the_tests():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    callers = [p.read_text(encoding="utf-8") for folder in ("bench", "tools")
               for p in sorted((ROOT / folder).rglob("*.py"))]
    assert unnamed_publics(sources, callers) == []


def test_checker_flags_an_unnamed_public():
    sources = {"a.py": "def used():\n    pass\n\n"
                       "def recursive(n):\n    return recursive(n - 1)\n\n"
                       "def tested():\n    pass\n\n"
                       "def shadowed():\n    pass\n\n"
                       "class Dead:\n    def again(self):\n        return self.again()\n\n"
                       "class Live:\n    def called(self):\n        pass\n\n"
                       "    def dead(self):\n        pass\n\n"
                       "    def _private(self):\n        pass\n"}
    callers = ["import a\na.used()\na.Live().called()\nprint(a.Live().shadowed)\n"]
    assert unnamed_publics(sources, callers) == ["a.py:Dead", "a.py:Dead.again", "a.py:Live.dead",
                                                 "a.py:recursive", "a.py:tested"]


def public_callables(tree):
    """(label, name calls use, function node, leading parameters calls do not pass) of a module.

    Public functions, and the public methods and ``__init__`` of public
    classes; ``__init__`` is called by its class's name, and methods do
    not pass ``self`` (a staticmethod passes every parameter).
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    yield node.name, node.name, item, 1
                elif not item.name.startswith("_"):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    yield f"{node.name}.{item.name}", item.name, item, 0 if static else 1


def called_name(node):
    """The name a call or decorator uses, bare or as an attribute."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", None))


def init_fields(node, dataclasses: dict) -> dict:
    """{name: has a default} of the ``__init__`` parameters a dataclass generates, in order.

    Fields of base classes found in ``dataclasses`` come first, the last
    base's first as in the method resolution order; a field declared
    again keeps its place. ``ClassVar`` and ``init=False`` fields are not
    parameters.
    """
    params = {}
    for base in reversed(node.bases):
        if called_name(base) in dataclasses:
            params.update(init_fields(dataclasses[called_name(base)], dataclasses))
    for stmt in node.body:
        if (not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name)
                or "ClassVar" in ast.unparse(stmt.annotation)):
            continue
        name, value = stmt.target.id, stmt.value
        if isinstance(value, ast.Call) and called_name(value) == "field":
            options = {k.arg: k.value for k in value.keywords}
            if getattr(options.get("init"), "value", True) is False:
                params.pop(name, None)
                continue
            params[name] = "default" in options or "default_factory" in options
        else:
            params[name] = value is not None
    return params


def dataclass_defaults(trees: dict) -> list:
    """(label, name calls use, defaulted parameters) of the ``__init__`` that each public
    dataclass of the modules generates, as one_sided_defaults lists a function's."""
    found = {module: [node for node in tree.body if isinstance(node, ast.ClassDef)
                      and any(called_name(d) == "dataclass" for d in node.decorator_list)]
             for module, tree in trees.items()}
    by_name = {node.name: node for nodes in found.values() for node in nodes}
    return [(f"{module}:{node.name}", node.name,
             [(i, name) for i, (name, default) in enumerate(init_fields(node, by_name).items())
              if default])
            for module, nodes in found.items() for node in nodes
            if not node.name.startswith("_")
            and not any(getattr(item, "name", None) == "__init__" for item in node.body)]


def one_sided_defaults(sources: dict, callers) -> list:
    """Defaulted parameters of public functions and methods, and defaulted fields of
    public dataclasses, that the callers do not both set and leave unset.

    A default is kept only where two calls need different values: one
    sets the parameter, another leaves it to the default. A call sets a
    parameter when it names it as a keyword, passes enough positional
    arguments to reach it, or unpacks ``*args`` or ``**kwargs``. Calls
    are matched by the function's name, bare or as an attribute; a
    class's ``__init__`` by the class's name (see public_callables). A
    dataclass field is a parameter of the class's name, placed as in the
    ``__init__`` the dataclass generates (see init_fields).
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defaults = dataclass_defaults(trees)
    for module, tree in trees.items():
        for label, name, node, skip in public_callables(tree):
            args = node.args
            positional = (args.posonlyargs + args.args)[skip:]
            first = len(positional) - len(args.defaults)
            defaults.append((f"{module}:{label}", name,
                             [(i, p.arg) for i, p in enumerate(positional) if i >= first]
                             + [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                                if d is not None]))
    calls = defaultdict(list)
    for source in callers:
        for call in ast.walk(ast.parse(source)):
            if isinstance(call, ast.Call):
                name = called_name(call)
                unpacks = (any(isinstance(a, ast.Starred) for a in call.args)
                           or any(k.arg is None for k in call.keywords))
                calls[name].append((unpacks, len(call.args), {k.arg for k in call.keywords}))
    flagged = []
    for label, name, params in defaults:
        for i, param in params:
            sets = {unpacks or (i is not None and n_args > i) or param in keywords
                    for unpacks, n_args, keywords in calls[name]}
            if sets != {True, False}:
                flagged.append(f"{label}({param})")
    return sorted(flagged)


# the program's own code: the package, the benchmark and the tools, but not the tests
PRODUCTION = ("src", "bench", "tools")


def production_sources(root: Path) -> list:
    return [p.read_text(encoding="utf-8") for folder in PRODUCTION
            for p in sorted((root / folder).rglob("*.py"))]


def test_every_public_default_is_set_by_some_caller():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert one_sided_defaults(sources, production_sources(ROOT)) == []


def test_checker_flags_an_unset_default():
    sources = {"a.py": "def f(x, by_position=1, by_keyword=2, never=3, *, kw_never=4):\n"
                       "    pass\n\n"
                       "def g(spread=0):\n    pass\n\n"
                       "def _private(unset=0):\n    pass\n\n"
                       "class C:\n"
                       "    def __init__(self, by_position=None, never=None):\n        pass\n\n"
                       "    def m(self, by_keyword=0, never=0):\n        pass\n\n"
                       "    @staticmethod\n"
                       "    def s(by_position=0):\n        pass\n\n"
                       "    def _hidden(self, unset=0):\n        pass\n\n"
                       "class _Private:\n"
                       "    def __init__(self, unset=None):\n        pass\n"}
    callers = ["import a\na.f(0, 1)\nf(0, by_keyword=5)\ng(*[])\ng()\n"
               "c = a.C(1)\na.C()\nc.m(by_keyword=2)\nc.m()\na.C.s(3)\na.C.s()\n"]
    assert one_sided_defaults(sources, callers) == ["a.py:C(never)", "a.py:C.m(never)",
                                                    "a.py:f(kw_never)", "a.py:f(never)"]


def test_checker_flags_a_one_sided_default(tmp_path):
    files = {"src/distatlas/a.py": "def always(x, seed=0):\n    pass\n\n"
                                   "def never(x, h=1e-5):\n    pass\n\n"
                                   "def tested(x, shape=None):\n    pass\n\n"
                                   "def kept(x, spread=0):\n    pass\n",
             "bench/b.py": "from a import always, kept, never, tested\n"
                           "always(1, seed=2)\nalways(1, 3)\nnever(1)\ntested(1)\n"
                           "kept(1)\nkept(1, spread=2)\n",
             "tests/test_a.py": "from a import never, tested\ntested(1, shape=5)\nnever(1, h=2)\n"}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    sources = {"a.py": files["src/distatlas/a.py"]}
    assert one_sided_defaults(sources, production_sources(tmp_path)) == [
        "a.py:always(seed)", "a.py:never(h)", "a.py:tested(shape)"]


def test_checker_flags_a_one_sided_field_default():
    sources = {"a.py": "from dataclasses import dataclass, field\n\n"
                       "@dataclass\n"
                       "class Base:\n    x: int\n    inherited: int = 0\n\n"
                       "@dataclass(frozen=True)\n"
                       "class D(Base):\n    every: int = 1\n    some: int = 2\n"
                       "    made: list = field(default_factory=list)\n"
                       "    hidden: int = field(default=0, init=False)\n\n"
                       "@dataclass\n"
                       "class _Private:\n    unset: int = 0\n\n"
                       "@dataclasses.dataclass\n"
                       "class K:\n    spread: int = 0\n"}
    callers = ["import a\na.D(0, 1, every=3)\nD(0, every=4, some=5)\na.Base(0)\nBase(0, 1)\n"
               "a.K(**{})\nK()\n_Private()\n"]
    assert one_sided_defaults(sources, callers) == ["a.py:D(every)", "a.py:D(made)"]


def test_cli_import_leaves_scipy_submodules_unloaded():
    code = ("import sys, distatlas.cli; "
            "print(sorted(m for m in ('scipy.ndimage', 'scipy.spatial') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def scipy_imports(source: str) -> list:
    """Line numbers of the imports of scipy or of any of its subpackages."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Import) and any(
                      alias.name.split(".")[0] == "scipy" for alias in node.names)
                  or isinstance(node, ast.ImportFrom) and node.level == 0
                  and (node.module or "").split(".")[0] == "scipy")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    assert scipy_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_every_form_of_a_scipy_import():
    source = ("import numpy, scipy.ndimage\nfrom scipy import spatial\n"
              "def f():\n    from scipy.spatial import cKDTree\n"
              "from . import scipy_free\nimport scipyx\n")
    assert scipy_imports(source) == [1, 2, 4]


def test_the_pipeline_runs_with_scipy_blocked(tmp_path):
    # generate, train bvae and map, each in a process where `import scipy` raises
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from distatlas.cli import main\n"
            "for argv in sys.argv[1:]:\n"
            "    code = main(argv.split())\n"
            "    if code:\n"
            "        sys.exit(code)\n")
    out = tmp_path / "run"
    argvs = [f"generate --per-family 8 --seed 2 --out-dir {out}",
             f"train bvae --dataset {out}/dataset.bin --epochs 1 --seed 2 --out-dir {out}",
             f"map --vae {out}/bvae.ckpt --dataset {out}/dataset.bin --seed 2 --latent-epochs 1"
             f" --density-resolution 30 --class-map-resolution 5 --curve-resolution 3"
             f" --out-dir {out}"]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code, *argvs], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (out / "overlap_matrix.csv").is_file() and (out / "segments.csv").is_file()
