import ast
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import torustwist

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_child(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def test_all_lists_each_public_name_once_and_only_those():
    names = torustwist.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(torustwist, name), name
    # the names defined on import, and those resolved on first use
    eager = {name for name, value in vars(torustwist).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert set(names) == eager | set(torustwist._LAZY)


def test_the_package_has_no_assert_statement():
    # invariant checks must hold under python -O, so they raise instead
    modules = sorted(Path(torustwist.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Assert)]
        assert asserts == [], (path.name, asserts)


def _reached(path):
    """{(module, name)} for every import statement anywhere in the file,
    function bodies included: `module` is the torustwist module or the
    outside package it imports from ("" for the torustwist package itself),
    and `name` each name it takes (None for a plain `import`)."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                out.add((rest.split(".")[0] if top == "torustwist" else top,
                         None))
        elif isinstance(node, ast.ImportFrom):
            top, _, rest = (node.module or "").partition(".")
            if node.level or top == "torustwist":
                module = top if node.level else rest.split(".")[0]
            else:
                module = top
            out.update((module, alias.name) for alias in node.names)
    return out


def test_the_counting_layers_never_reach_the_certified_route():
    # core, errors, lattice, obstruction and fourmanifold import nothing of
    # the certified route, nor numpy, even inside a function; cli reaches
    # it only through the package's lazy names
    certified = {"tristram", "certify", "seifert", "cyclotomic", "numpy"}
    home = Path(torustwist.__file__).parent
    for name in ("core", "errors", "lattice", "obstruction", "fourmanifold",
                 "cli"):
        reached = _reached(home / f"{name}.py")
        modules = {m for m, _ in reached}
        # `from . import x` reaches the module x or the package's name x
        modules |= {n for m, n in reached if m == ""}
        assert not modules & certified, (name, modules & certified)
        if name != "cli":
            assert {n for m, n in reached if m == ""} == set(), name
    from_package = {n for m, n in _reached(home / "cli.py") if m == ""}
    assert "tristram_sigma" in from_package
    assert from_package <= set(torustwist._LAZY), from_package


def test_classify_tables_and_scan_run_without_numpy():
    # a None entry in sys.modules makes `import numpy` raise ImportError;
    # only the certified route (tristram and the modules under it) needs it
    res = _run_child("""
        import sys
        sys.modules["numpy"] = None
        from torustwist import cli
        runs = [["classify", "-p", p, "-q", q, *fmt]
                for p, q in (("-5", "8"), ("1", "5"), ("9", "13"))
                for fmt in ([], ["--format", "json"])]
        runs.append(["tables", "--which", "thm1.3"])
        runs += [["scan", "--p-min", "2", "--p-max", "9", "--q-min", "3",
                  "--q-max", "12", "--jobs", jobs] for jobs in ("1", "2")]
        runs += [["sigma", "-p", "5", "-q", "8", "--method", method]
                 for method in ("closed", "oracle")]
        for argv in runs:
            if cli.main(argv) != 0:
                sys.exit(f"{argv} failed")
        loaded = [m for m in ("tristram", "certify", "seifert", "cyclotomic")
                  if "torustwist." + m in sys.modules]
        sys.exit(f"loaded {loaded}" if loaded else 0)
    """)
    assert res.returncode == 0, res.stderr[-3000:]


def test_the_certified_route_without_numpy_is_a_domain_error():
    # sigma's seifert route exits 2 with one line, not a traceback, and a
    # lazy name raises DomainError; a missing module other than numpy is
    # re-raised as it is
    res = _run_child("""
        import contextlib, io, sys
        sys.modules["numpy"] = None
        import torustwist
        from torustwist import cli
        from torustwist.errors import DomainError
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["sigma", "-p", "5", "-q", "8",
                             "--method", "seifert"])
        if (code, err.getvalue()) != (
                2, "error: tristram_sigma needs numpy, which is not "
                   "installed\\n"):
            sys.exit(f"exit {code}: {err.getvalue()!r}")
        try:
            torustwist.inertia
        except DomainError as e:
            if "needs numpy" not in str(e):
                sys.exit(f"message {e}")
        else:
            sys.exit("torustwist.inertia resolved without numpy")
        del sys.modules["numpy"]
        sys.modules["torustwist.certify"] = None
        try:
            torustwist.inertia
        except ModuleNotFoundError as e:
            sys.exit(0 if e.name == "torustwist.certify" else f"name {e.name}")
        sys.exit("torustwist.inertia resolved without certify")
    """)
    assert res.returncode == 0, res.stderr[-3000:]


def test_every_public_name_resolves_to_its_home_module():
    res = _run_child("""
        import sys
        import torustwist
        from torustwist import cli
        for name in torustwist.__all__:
            value = getattr(torustwist, name)
            home = sys.modules[value.__module__]
            if not (home.__name__.startswith("torustwist.")
                    and getattr(home, name) is value):
                sys.exit(f"{name} resolves to {value!r}")
        sys.exit(cli.main(["sigma", "-p", "5", "-q", "8",
                           "--method", "seifert"]))
    """)
    assert res.returncode == 0, res.stderr[-3000:]
    assert res.stdout == "-20\n"


def test_a_failing_given_test_is_reported_and_the_session_goes_on(tmp_path):
    # under this pyproject.toml's filterwarnings, a failing hypothesis test
    # must stay one failure: its failure report imports libcst, whose
    # DeprecationWarning, raised as an error, would end the session with
    # INTERNALERROR before the next test is reported
    (tmp_path / "test_pair.py").write_text(textwrap.dedent("""\
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x != x


        def test_passes():
            pass
        """))
    config = SRC.parent / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config),
         "-p", "no:cacheprovider", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout
    assert "1 failed, 1 passed" in run.stdout, run.stdout
