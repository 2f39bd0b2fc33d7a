"""Unit tests for the whole-program graph (`repro.analysis.flow.graph`):
import resolution through re-export chains and cycles, the conservative
call graph (self-methods, cross-module calls, locally constructed
instances, nested defs), and ``__main__`` entry-point detection."""

from repro.analysis.flow import build_program
from repro.analysis.lint import ModuleInfo


def _program(tmp_path, files):
    """Write ``files`` ({relpath under src/repro: source}) and link
    them; dotted names come out as ``repro.<path>``."""
    mods = []
    for rel, src in files.items():
        target = tmp_path / "src" / "repro" / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(src)
        mods.append(ModuleInfo.parse(target, root=tmp_path))
    return build_program(mods)


def _callees(func):
    """Qualnames of the calls ``func`` makes that resolve, in source
    order."""
    return [t.qualname for t in func.call_targets.values()]


def test_module_dotted_names_and_packages(tmp_path):
    prog = _program(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/impl.py": "def thing():\n    return 1\n",
    })
    assert set(prog.modules) == {"repro.pkg", "repro.pkg.impl"}
    assert prog.modules["repro.pkg"].is_package
    assert not prog.modules["repro.pkg.impl"].is_package


def test_resolution_follows_reexport_chain(tmp_path):
    prog = _program(tmp_path, {
        "pkg/__init__.py": "from repro.pkg.impl import thing\n",
        "pkg/impl.py": "def thing():\n    return 1\n",
        "user.py": (
            "from repro.pkg import thing\n"
            "def caller():\n"
            "    return thing()\n"
        ),
    })
    user = prog.modules["repro.user"]
    resolved = prog.resolve(user, "thing")
    assert resolved[0] == "func"
    assert resolved[1].qualname == "repro.pkg.impl.thing"
    caller = user.functions["caller"]
    assert _callees(caller) == ["repro.pkg.impl.thing"]


def test_import_cycle_terminates(tmp_path):
    """a re-exports from b, b re-exports from a: resolution of the
    never-defined symbol gives up instead of looping."""
    prog = _program(tmp_path, {
        "a.py": "from repro.b import ghost\n",
        "b.py": "from repro.a import ghost\n",
    })
    a = prog.modules["repro.a"]
    assert prog.resolve(a, "ghost") is None


def test_self_method_and_base_class_resolution(tmp_path):
    prog = _program(tmp_path, {
        "base.py": (
            "class Base:\n"
            "    def helper(self):\n"
            "        return 0\n"
        ),
        "impl.py": (
            "from repro.base import Base\n"
            "class Impl(Base):\n"
            "    def run(self):\n"
            "        return self.helper()\n"
        ),
    })
    run = prog.modules["repro.impl"].classes["Impl"].methods["run"]
    assert _callees(run) == ["repro.base.Base.helper"]


def test_locally_constructed_instance_resolves_methods(tmp_path):
    prog = _program(tmp_path, {
        "w.py": (
            "class Worker:\n"
            "    def run(self):\n"
            "        return 1\n"
            "def spawn():\n"
            "    w = Worker()\n"
            "    return w.run()\n"
        ),
    })
    spawn = prog.modules["repro.w"].functions["spawn"]
    assert "repro.w.Worker.run" in _callees(spawn)


def test_nested_defs_fold_into_parent(tmp_path):
    """A closure defined inside a function is part of that function's
    behaviour: its calls appear on the parent's edges."""
    prog = _program(tmp_path, {
        "n.py": (
            "def leaf():\n"
            "    return 1\n"
            "def parent():\n"
            "    def inner():\n"
            "        return leaf()\n"
            "    return inner\n"
        ),
    })
    parent = prog.modules["repro.n"].functions["parent"]
    assert _callees(parent) == ["repro.n.leaf"]


def test_adhoc_files_get_stem_names(tmp_path):
    f = tmp_path / "scratch.py"
    f.write_text("def g():\n    return 1\n")
    prog = build_program([ModuleInfo.parse(f)])
    assert set(prog.modules) == {"scratch"}
