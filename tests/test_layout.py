"""The package layout: standard library only, imports at module level, a sound __all__,
every function the benchmark's tracer wraps still in place, and no class or module-level
name that nothing reads (functions and methods are ``test_reach.py``'s)."""

import ast
import re
import sys
from pathlib import Path

import symplaw
import symplaw.cli  # the tracer resolves boundaries in every module, the CLI too
from symplaw.matrices import RingMatrix

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "symplaw").glob("*.py"))
# where a name of the package may be read: the package, the benchmark and the tests
READERS = [p for top in ("src", "bench", "tests") for p in sorted((ROOT / top).rglob("*.py"))]


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "matrices.py", "cli.py"}


def test_no_import_inside_a_function():
    found = []
    for path in SOURCES:
        for fn in ast.walk(_parse(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_absolute_imports_are_standard_library():
    """The package, and the benchmark's oracle the tests share, which so never imports symplaw."""
    found = []
    for path in SOURCES + [ROOT / "bench" / "exact.py"]:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found, found


def test_all_names_resolve_without_duplicates():
    names = symplaw.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(symplaw, name)]
    assert not missing, missing


def test_every_traced_boundary_resolves(bench):
    """A renamed or deleted function that ``bench/run.py --trace 1`` wraps fails here."""
    tracing = bench("tracing")
    unresolved = []
    for boundary in tracing.TIMED + tracing.COUNTED:
        try:
            fn = tracing._resolve(boundary)
        except (KeyError, AttributeError):
            unresolved.append(boundary)
        else:
            assert callable(fn), boundary
    assert not unresolved, unresolved
    # the mat_det hook splits its calls by this method
    assert callable(getattr(RingMatrix, "all_rational", None))


def test_cleared_form_stays_inside_matrices():
    """Outside ``matrices.py`` no module builds with ``RingMatrix._cleared`` or reads ``_ints``
    or ``_den``; they go through ``matrix_from_ratios`` and ``cleared()``."""
    private = {"_cleared", "_ints", "_den"}
    found = [f"{path.name}:{node.lineno}: {node.attr}"
             for path in SOURCES if path.name != "matrices.py"
             for node in ast.walk(_parse(path))
             if isinstance(node, ast.Attribute) and node.attr in private]
    assert not found, found


def test_matrix_sums_are_one_linear_combination():
    """``RingMatrix.__add__``, ``__sub__``, ``__neg__`` and ``_scaled`` are each one
    ``return _linear_combination(..)``, after at most a guard that returns ``NotImplemented``
    for an operand that is not a matrix, and name neither entry form, ``entries`` nor ``_ints``:
    both forms are that kernel's business, so every sum of matrices takes one path."""
    tree = _parse(ROOT / "src" / "symplaw" / "matrices.py")
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "RingMatrix"]
    sums = {"__add__", "__sub__", "__neg__", "_scaled"}
    methods = [fn for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name in sums]
    assert {fn.name for fn in methods} == sums
    found = [f"matrices.py:{node.lineno}: {fn.name} names {name}" for fn in methods
             for node in ast.walk(fn)
             for name in (getattr(node, "id", None), getattr(node, "attr", None))
             if name in ("entries", "_ints")]
    for fn in methods:
        body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
        guard = body[0]
        if (len(body) == 2 and isinstance(guard, ast.If) and not guard.orelse and len(guard.body) == 1
                and isinstance(guard.body[0], ast.Return)
                and getattr(guard.body[0].value, "id", None) == "NotImplemented"):
            body = body[1:]
        if not (len(body) == 1 and isinstance(body[0], ast.Return)
                and isinstance(body[0].value, ast.Call)
                and getattr(body[0].value.func, "id", None) == "_linear_combination"):
            found.append(f"matrices.py:{fn.lineno}: {fn.name} is not one _linear_combination call")
    assert not found, found


def test_packed_keys_stay_inside_multipoly_gma_and_matrices():
    """Outside ``multipoly.py`` and ``gma.py`` no module names a pack helper, and outside them and
    ``matrices.py`` none reads ``MultiPoly._packed``: ``matrices.py`` learns an entry's variables
    from ``MultiPoly.used_vars``, and the rest read terms through ``MultiPoly.terms`` and the
    arithmetic."""
    helpers = {"_pack", "_unpack", "_shift", "_guard", "_repacked", "_check_guard", "_over_cap",
               "_FIELD", "_MASK"}
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name not in ("multipoly.py", "gma.py")
             for node in ast.walk(_parse(path))
             if (isinstance(node, ast.Attribute) and (node.attr in helpers or (
                 node.attr == "_packed" and path.name != "matrices.py")))
             or (isinstance(node, ast.Name) and node.id in helpers)
             or (isinstance(node, ast.ImportFrom) and any(a.name in helpers for a in node.names))]
    assert not found, found


def _names_in(module: str, function: str, names: set) -> list:
    """Where the body of the module-level ``function`` of ``module`` names one of ``names``."""
    tree = _parse(ROOT / "src" / "symplaw" / module)
    (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function]
    return [f"{module}:{node.lineno}: {name}" for node in ast.walk(fn)
            for name in (getattr(node, "id", None), getattr(node, "attr", None)) if name in names]


def test_the_spanning_side_never_reads_the_oracle():
    """``trace_word_span_dim`` must reach its rank without the Lie-algebra oracle, or the FFT
    check that compares the two would hold by construction."""
    found = _names_in("invariants.py", "trace_word_span_dim",
                      {"multilinear_invariant_dim", "simple_root_vectors"})
    assert not found, found


def test_the_two_coefficient_routes_share_no_step():
    """``recursion_matches_pfaffian_char_poly`` compares the T-vector of
    ``pfaffian_coeffs_of_matrix`` with the one the recursion takes from ``lambdas_of_matrix``.
    The T route must reach no characteristic polynomial of M, and the Lambda route must not
    split with ``coefficients_in`` as the T route does, or a fault in a shared step would
    cancel (an odd-sign fault does at even d)."""
    found = _names_in("symplectic.py", "pfaffian_coeffs_of_matrix",
                      {"lambdas_of_matrix", "char_poly", "_berkowitz", "_integer_char_coeffs"})
    found += _names_in("matrices.py", "lambdas_of_matrix", {"coefficients_in"})
    assert not found, found


def _catches_value_error(handler) -> bool:
    names = ast.walk(handler.type) if handler.type is not None else ()
    return any(isinstance(n, ast.Name) and n.id == "ValueError" for n in names)


def test_every_int_call_of_a_parser_catches_value_error():
    """In the modules that read input text, ``int()`` is called only inside
    ``words.integer_literal``, in the body of a ``try`` that catches ``ValueError``, and no
    argparse option reads with ``type=int``: one grammar decides what an integer is.  ``int``
    alone accepts "+1", " 1", "1_0" and non-ASCII digits, and refuses more digits than the
    int digit limit."""
    found = []
    for path in SOURCES:
        if path.name not in ("cli.py", "serialize.py", "words.py"):
            continue
        tree = _parse(path)
        reader = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "integer_literal"
                  for tried in ast.walk(fn)
                  if isinstance(tried, ast.Try) and any(map(_catches_value_error, tried.handlers))
                  for stmt in tried.body for node in ast.walk(stmt)}
        found += [f"{path.name}:{node.lineno}: int()" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "int" and id(node) not in reader]
        found += [f"{path.name}:{node.value.lineno}: type=int" for node in ast.walk(tree)
                  if isinstance(node, ast.keyword) and node.arg == "type"
                  and isinstance(node.value, ast.Name) and node.value.id == "int"]
    assert not found, found


def test_digit_tests_only_inside_the_integer_reader():
    """In the modules that read input text, ``isdigit``, ``isdecimal`` and ``isnumeric`` are
    called only inside ``words.integer_literal``: each is true for digits that are not ASCII
    ("\u0661", and "\u00b2" for two of them), so a parser that dispatches on one reads a
    second grammar."""
    tests = {"isdigit", "isdecimal", "isnumeric"}
    found = []
    for path in SOURCES:
        if path.name not in ("cli.py", "serialize.py", "words.py"):
            continue
        tree = _parse(path)
        reader = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "integer_literal"
                  for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}: {node.func.attr}()" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in tests and id(node) not in reader]
    assert not found, found


def _found_outside(matches, allowed: set, sources=SOURCES) -> list:
    """Where a node of ``sources`` for which ``matches(node)`` holds stands outside the
    ``allowed`` functions and methods ("module.name" or "module.Class.name")."""
    found = []
    for path in sources:
        tree = _parse(path)
        scopes = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        scopes += [(f"{cls.name}.{fn.name}", fn) for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)]
        owner = {id(node): f"{path.stem}.{name}" for name, fn in scopes for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}: {owner.get(id(node), 'module level')}"
                  for node in ast.walk(tree) if matches(node) and owner.get(id(node)) not in allowed]
    return found


def _calls_outside(callee: str, allowed: set, sources=SOURCES) -> list:
    """Where a function or method of ``sources`` other than the ``allowed`` ones calls
    ``callee``, as a name or as an attribute."""
    return _found_outside(lambda node: isinstance(node, ast.Call) and callee in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)), allowed, sources)


def test_one_word_check_at_entry():
    """``words.check_word`` is called only where a word enters: ``GroupAlgebraElement.__init__``
    and ``InvolutiveRepresentation.rho_word``.  A word held by an element has been checked, and
    w -> w^(-1) keeps it reduced, so ``star`` and the element arithmetic need no second check;
    at most the representation's generator bound."""
    found = _calls_outside("check_word", {"detlaws.GroupAlgebraElement.__init__",
                                          "detlaws.InvolutiveRepresentation.rho_word"})
    assert not found, found


def test_one_rule_for_a_constant_leaving_a_kernel():
    """Outside ``multipoly.py``, ``constant_value()`` is called only by ``matrices.exact_scalar``,
    the rule that makes a constant value leaving a kernel a Fraction, and by
    ``symplectic.similitude``, which refuses a non-constant lambda with it: a second converter
    of constants fails here."""
    found = _calls_outside("constant_value", {"matrices.exact_scalar", "symplectic.similitude"},
                           [path for path in SOURCES if path.name != "multipoly.py"])
    assert not found, found


def test_one_seed_rule_in_the_suites():
    """``suites.py`` makes its random streams in ``_stream`` alone, its one ``random.Random``
    call, and does no arithmetic on a seed: a seed formula such as ``seed * 31 + trial``,
    which let two draws of a run share a sample, fails here."""
    path = ROOT / "src" / "symplaw" / "suites.py"
    tree = _parse(path)
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "Random" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert len(calls) == 1 and not _calls_outside("Random", {"suites._stream"}, [path])
    formulas = [f"suites.py:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.BinOp)
                and any(isinstance(side, ast.Name) and side.id == "seed"
                        for side in (node.left, node.right))]
    assert not formulas, formulas


def test_one_refusal_path():
    """Only ``cli.main`` writes to ``sys.stderr``: every refusal is a ``SymplawError`` raised
    where it is found and printed there as one ``input error:`` line.  And no handler in
    ``serialize.py`` re-raises the error it caught as ``SchemaError(str(e))``: a constructor's
    refusal passes through with its own class and message."""
    found = _found_outside(lambda node: (isinstance(node, ast.Attribute) and node.attr == "stderr")
                           or (isinstance(node, ast.alias) and node.name == "stderr"), {"cli.main"})
    for handler in ast.walk(_parse(ROOT / "src" / "symplaw" / "serialize.py")):
        if not isinstance(handler, ast.ExceptHandler) or handler.name is None:
            continue
        relabel = f"SchemaError(str({handler.name}))"
        found += [f"serialize.py:{node.lineno}: {relabel}" for node in ast.walk(handler)
                  if isinstance(node, ast.Raise) and node.exc and ast.unparse(node.exc) == relabel]
    assert not found, found


def _defined_names(tree):
    """(name, line) of each class and module-level name a module defines."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def _read_names(tree):
    """Each name a module reads: loads, attribute reads, imports and identifiers in strings.

    Strings count because the tracer and the tests name objects in them
    ("matrices.RingMatrix.__mul__", ``monkeypatch.setattr(mod, "name", ..)``);
    docstrings do not, since mentioning a name in prose is not using it.
    """
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(id(first.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            yield from re.findall(r"[A-Za-z_]\w*", node.value)


def test_every_defined_name_is_read_somewhere():
    """A class or module-level name of the package that nothing reads fails here.  A function
    or method that nothing calls fails ``test_reach.py``, which tells a method from a
    namesake read on another class; reading by name, as here, cannot."""
    read = {name for path in READERS for name in _read_names(_parse(path))}
    dead = [f"{path.name}:{line}: {name}"
            for path in SOURCES for name, line in _defined_names(_parse(path))
            if name not in read and not (name.startswith("__") and name.endswith("__"))]
    assert not dead, dead


def _is_os_environ(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def test_json_keys_read_only_by_the_key_reader():
    """In the modules that read input, no call ``.get("<key>", ..)`` and no test
    ``"<key>" in ..`` stands outside ``serialize.json_fields``, which refuses a key it was not
    told of; ``os.environ`` is no JSON object.  A second reader of keys would take a misspelt
    key as an absent one and read its default."""
    found = []
    for path in SOURCES:
        if path.name not in ("cli.py", "serialize.py"):
            continue
        tree = _parse(path)
        reader = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "json_fields"
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in reader:
                continue
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get" and not _is_os_environ(node.func.value)
                    and node.args and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                found.append(f"{path.name}:{node.lineno}: .get({node.args[0].value!r})")
            elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Constant)
                  and isinstance(node.left.value, str)
                  and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)):
                found.append(f"{path.name}:{node.lineno}: {node.left.value!r} in")
    assert not found, found


# every test module and the fixtures they share; ``tests/sweep.py`` is a script, not a test
TESTS = [ROOT / "tests" / "conftest.py", *sorted((ROOT / "tests").glob("test_*.py"))]


def test_a_child_process_runs_the_symplaw_under_test():
    """Every child process gets its environment from the ``child_env`` fixture, which puts the
    directory of the imported ``symplaw`` on PYTHONPATH: only ``conftest.py`` names PYTHONPATH,
    no test edits ``sys.path``, and every ``subprocess`` call passes ``env=child_env`` and no
    ``cwd``.  A test that put this checkout's ``src`` on a child's path would run other code
    than the one ``PYTHONPATH`` names.  Reading the source files by path stays allowed."""
    found = []
    for path in TESTS:
        for node in ast.walk(_parse(path)):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if (isinstance(node, ast.Constant) and node.value == "PYTHONPATH"
                    and path.name not in ("conftest.py", Path(__file__).name)):  # here, to find it
                found.append(f"{where}: names PYTHONPATH")
            elif (isinstance(node, ast.Attribute) and node.attr == "path"
                  and isinstance(node.value, ast.Name) and node.value.id == "sys"):
                found.append(f"{where}: sys.path")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name) and node.func.value.id == "subprocess"):
                keywords = {k.arg: ast.unparse(k.value) for k in node.keywords}
                if keywords.get("env") != "child_env" or "cwd" in keywords:
                    found.append(f"{where}: subprocess.{node.func.attr} without env=child_env")
    assert not found, found
