"""Rules on the library source that no behavioural test can see."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polyflow"

# a bare ``except:`` or a handler naming ``Exception``/``BaseException``
BROAD_EXCEPT = re.compile(
    r"^\s*except(\s*:|\b[^:#]*\b(Base)?Exception\b)")


def test_no_broad_except():
    # a broad handler turns a solver fault into a silent wrong result;
    # each handler names the errors it expects
    offenders = [f"{path.name}:{n}: {line.strip()}"
                 for path in sorted(SRC.glob("*.py"))
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if BROAD_EXCEPT.match(line)]
    assert list(SRC.glob("*.py")) and not offenders, offenders


def test_broad_except_pattern():
    for line in ("except Exception:", "    except Exception as exc:",
                 "except:", "  except  :", "except BaseException:",
                 "except (ValueError, Exception) as exc:"):
        assert BROAD_EXCEPT.match(line), line
    for line in ("except ValueError:", "except InadmissibleHorizon:",
                 "except (ConfigError, DomainExit) as exc:",
                 "# except Exception:", "except ExceptionGroup:",
                 "except KernelException:",
                 "except ValueError:  # not Exception"):
        assert not BROAD_EXCEPT.match(line), line


def called_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def test_one_macro_step_driver():
    # both coupled models run through scenarios._run_coupled, so a change
    # inside the macro-step loop is made in one place
    for model in ("epidemic.py", "pursuit.py"):
        tree = ast.parse((SRC / model).read_text())
        assert not [node.lineno for node in ast.walk(tree)
                    if called_name(node) in ("refine_to_process", "couple")]
    tree = ast.parse((SRC / "scenarios.py").read_text())
    driver = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_run_coupled")
    for name in ("refine_to_process", "couple"):
        sites = [node.lineno for node in ast.walk(tree)
                 if called_name(node) == name]
        assert len(sites) == 1, (name, sites)
        assert driver.lineno <= sites[0] <= driver.end_lineno, (name, sites)
    # a process is certified for any step up to its horizon, so the driver
    # couples its two processes once per run, not once per macro step
    loops = [node for node in ast.walk(driver) if isinstance(node, ast.For)]
    assert loops
    assert not [node.lineno for loop in loops for node in ast.walk(loop)
                if called_name(node) == "couple"]


def loose_refine_calls(module: ast.Module) -> list[int]:
    """Lines of the ``refine_to_process`` calls that do not pass exactly
    five positional arguments, none starred, and no keyword."""
    return [node.lineno for node in ast.walk(module)
            if called_name(node) == "refine_to_process"
            and (len(node.args) != 5 or node.keywords
                 or any(isinstance(a, ast.Starred) for a in node.args))]


def test_refine_schedule_passed_positionally():
    # perfbench/spans.py counts each refinement with a function that binds
    # the schedule as the fifth positional argument: a ``schedule=`` keyword
    # would raise TypeError there and report refine_to_process as broken
    calls = 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls += sum(called_name(node) == "refine_to_process"
                     for node in ast.walk(tree))
        assert not loose_refine_calls(tree), path.name
    assert calls


def test_loose_refine_calls_pattern():
    def lines(call):
        return loose_refine_calls(ast.parse(call))

    assert lines("refine_to_process(flow, tau, t0, x, schedule)") == []
    assert lines("metric.refine_to_process(f, 1.0, 0.0, x, RefineSchedule())"
                 ) == []
    for call in ("refine_to_process(flow, tau, t0, x, schedule=s)",
                 "refine_to_process(flow, tau, t0, x, tol, j0, j_max)",
                 "refine_to_process(flow, tau, t0, x)",
                 "refine_to_process(flow, tau, t0, x, s, j_max=3)",
                 "refine_to_process(flow, tau, t0, *rest)",
                 "refine_to_process(flow, tau, t0, x, *rest)",
                 "refine_to_process(*args, **kwargs)"):
        assert lines(call) == [1], call


# the moved names that a module still serves through ``_lazy.forwarder``:
# each is read there by a benchmark file, which its module docstring names
FORWARDED = {
    "harness": {"SUITES": "suites"},
    "scenarios": {"Bump": "pursuit", "predator_prey_fields": "pursuit",
                  "epidemic_cohort_reference": "epidemic"},
    "spaces": {"flat_distance": "measures"},
}


def test_forwarded_names_are_the_ones_the_benchmark_reads():
    # every other moved name is imported from its defining module, so the
    # list can only shrink; the forwarders' tables are dict literals
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if called_name(node) == "forwarder":
                assert path.stem not in found, path.name
                found[path.stem] = ast.literal_eval(node.args[1])
    assert found == FORWARDED


def module_level_imports(path: Path) -> set[str]:
    """The polyflow modules ``path`` imports outside its functions."""
    found = set()
    stack = list(ast.parse(path.read_text()).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= ({node.module} if node.module
                      else {a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module:
            found |= {node.module} | {f"{node.module}.{a.name}"
                                      for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names}
        stack.extend(ast.iter_child_nodes(node))
    return {m.removeprefix("polyflow.") for m in found}


def test_entry_modules_import_no_command_module():
    # the package, the CLI, the harness and the shared driver load for every
    # command, so each model or suite module they import eagerly would be
    # compiled by commands that never run it
    command_modules = {"claw", "measures", "suites", "pursuit", "epidemic",
                       "ibvp"}
    for name in ("__init__.py", "cli.py", "harness.py", "scenarios.py"):
        eager = module_level_imports(SRC / name) & command_modules
        assert not eager, (name, eager)


def test_module_level_imports_pattern(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from . import claw as _claw\n"
                    "from .suites import SUITES\n"
                    "import polyflow.pursuit\n"
                    "from polyflow import epidemic\n"
                    "if True:\n    from .ibvp import ibvp_solve\n"
                    "def f():\n    from .measures import measure_step\n"
                    "class C:\n    from .renewal import characteristic\n")
    assert {"claw", "suites", "pursuit", "epidemic", "ibvp"} \
        <= module_level_imports(path)
    assert not {"measures", "renewal"} & module_level_imports(path)


# an assignment to ``k4``, the last stage of a classical RK4 step
RK4_LAST_STAGE = re.compile(r"^[^#]*\bk4\s*=(?!=)")


def test_one_rk4_stepper():
    # ode._rk4 is the only RK4 body; every other integrator (characteristics,
    # crossing times, the ODE process) calls it
    sites = [(path.name, n)
             for path in sorted(SRC.glob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if RK4_LAST_STAGE.match(line)]
    tree = ast.parse((SRC / "ode.py").read_text())
    rk4 = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_rk4")
    assert len(sites) == 1, sites
    name, line = sites[0]
    assert name == "ode.py" and rk4.lineno <= line <= rk4.end_lineno


def test_rk4_has_no_branch():
    # one path for every state size: a size-gated second RK4 (in-place
    # stages for large states) would be a second stepper; the conditional
    # expression that picks the first stage's time is the one test
    tree = ast.parse((SRC / "ode.py").read_text())
    rk4 = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_rk4")
    assert not [node.lineno for node in ast.walk(rk4)
                if isinstance(node, ast.If)]
    assert len([node for node in ast.walk(rk4)
                if isinstance(node, ast.IfExp)]) == 1


def test_rk4_last_stage_pattern():
    for line in ("    k4 = f(t + h, u + h * k3)", "k4=f(t, u)",
                 "    a, k4 = 1, 2"):
        assert RK4_LAST_STAGE.match(line), line
    for line in ("# k4 = f(t + h, u)", "    if k4 == 0:", "    kk4 = 1",
                 "    k45 = 2", "    x = k4"):
        assert not RK4_LAST_STAGE.match(line), line


# the one constant-speed transport and the names only it may read
KERNEL = "_constant_speed_transport"
GEOMETRY_NAMES = {"_cached_geometry", "_build_geometry",
                  "_GEOMETRY_CACHE_CELLS"}


def speed_branches(func: ast.FunctionDef) -> list[int]:
    """Lines of the branches in ``func`` that test a ``velocity`` and do
    more than raise."""
    found = []
    for node in ast.walk(func):
        if not isinstance(node, (ast.If, ast.IfExp)):
            continue
        reads_speed = any(
            (isinstance(n, ast.Attribute) and n.attr == "velocity")
            or (isinstance(n, ast.Name) and n.id == "velocity")
            for n in ast.walk(node.test))
        raises_only = (isinstance(node, ast.If) and not node.orelse
                       and all(isinstance(s, ast.Raise) for s in node.body))
        if reads_speed and not raises_only:
            found.append(node.lineno)
    return found


def test_one_constant_speed_kernel():
    # renewal._constant_speed_transport is the only constant-speed
    # transport: backward_transport rejects a number speed, only the kernel
    # reads the geometry cache, and ibvp reaches it by that one private name
    tree = ast.parse((SRC / "renewal.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    assert not speed_branches(functions["backward_transport"])
    # the kernel, and the one line that makes the cache by wrapping the build
    allowed = {id(node) for owner in tree.body
               if owner is functions[KERNEL]
               or (isinstance(owner, ast.Assign)
                   and [ast.unparse(t) for t in owner.targets]
                   == ["_cached_geometry"])
               for node in ast.walk(owner)}
    for path in sorted(SRC.glob("*.py")):
        module = tree if path.name == "renewal.py" else ast.parse(
            path.read_text())
        reads = [node.lineno for node in ast.walk(module)
                 if isinstance(getattr(node, "ctx", None), ast.Load)
                 and getattr(node, "id", getattr(node, "attr", None))
                 in GEOMETRY_NAMES and id(node) not in allowed]
        assert not reads, (path.name, reads)
    private = {alias.name
               for node in ast.walk(ast.parse((SRC / "ibvp.py").read_text()))
               if isinstance(node, ast.ImportFrom)
               and node.module in ("renewal", "polyflow.renewal")
               for alias in node.names if alias.name.startswith("_")}
    assert private == {KERNEL}


def test_speed_branches_pattern():
    def lines(body):
        source = "def f(coef, velocity):\n" + body
        return speed_branches(ast.parse(source).body[0])

    assert lines("    if not callable(coef.velocity):\n        raise E\n") \
        == []
    assert lines("    if callable(velocity):\n        raise E\n") == []
    for body in ("    if not callable(coef.velocity):\n        return 1\n",
                 "    if isinstance(velocity, float):\n        x = 1\n",
                 "    if callable(coef.velocity):\n        raise E\n"
                 "    else:\n        x = 1\n",
                 "    x = 1 if callable(coef.velocity) else 2\n"):
        assert lines(body) == [2], body


# the fields of ``metric.RefineSchedule``, which owns their defaults and
# rules
SCHEDULE_FIELDS = {"j0", "j_max", "tol"}


def schedule_restatements(module: ast.Module) -> list[tuple[str, int]]:
    """Where ``schedule_from_config`` writes a number, and where
    ``validate_config`` compares a schedule field, by name or by key."""
    functions = {node.name: node for node in module.body
                 if isinstance(node, ast.FunctionDef)}
    found = [("schedule_from_config", node.lineno)
             for node in ast.walk(functions["schedule_from_config"])
             if isinstance(node, ast.Constant)
             and type(node.value) in (int, float, complex)]
    for node in ast.walk(functions["validate_config"]):
        if isinstance(node, ast.Compare) and any(
                getattr(n, "attr", getattr(n, "id", getattr(n, "value", None)))
                in SCHEDULE_FIELDS for n in ast.walk(node)):
            found.append(("validate_config", node.lineno))
    return found


def test_refine_schedule_written_once():
    # RefineSchedule holds the schedule's defaults and rules: the config
    # layer reads the one and reports the other as a ConfigError
    tree = ast.parse((SRC / "harness.py").read_text())
    assert schedule_restatements(tree) == []


def test_schedule_restatements_pattern():
    def found(reader="    return RefineSchedule()\n",
              check="    return None\n"):
        source = ("def schedule_from_config(cfg):\n" + reader
                  + "def validate_config(cfg):\n" + check)
        return [name for name, _ in schedule_restatements(ast.parse(source))]

    assert found() == []
    assert found("    '''Reads 3 keys.'''\n    return RefineSchedule(**{\n"
                 "        f.name: cfg.get(f.name, f.default)\n"
                 "        for f in fields(RefineSchedule)})\n",
                 "    if cfg['scenario'] == 'x' or len(cfg) > 3:\n"
                 "        raise E\n"
                 "    if cfg.get('refine') is None:\n        pass\n") == []
    for reader in ("    return RefineSchedule(j_max=cfg.get('j_max', 8))\n",
                   "    return RefineSchedule(tol=1e-5)\n",
                   "    return RefineSchedule(j0=-1)\n"):
        assert found(reader=reader) == ["schedule_from_config"], reader
    for test in ("schedule.tol > 0", "s.j0 > s.j_max", "j_max < 0",
                 "cfg['refine']['j0'] >= 0", "not 0 <= tol"):
        assert found(check=f"    if {test}:\n        raise E\n") \
            == ["validate_config"], test


def thread_imports(module: ast.Module) -> list[tuple[int, bool]]:
    """Each import of ``threading`` or ``concurrent`` in ``module``: its
    line, and whether it sits inside a function."""
    found = []

    def visit(node, in_function):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            names = []
        if any(name.split(".")[0] in ("threading", "concurrent")
               for name in names):
            found.append((node.lineno, in_function))
        for child in ast.iter_child_nodes(node):
            visit(child, in_function or isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(module, False)
    return found


def test_threads_only_in_the_coupled_step():
    # metric's coupled step alone may overlap two solves on a worker
    # thread, and imports what it needs only when a step overlaps, so
    # importing the package starts no thread pool and loads none
    for path in sorted(SRC.glob("*.py")):
        sites = thread_imports(ast.parse(path.read_text()))
        if path.name == "metric.py":
            assert sites and all(inside for _, inside in sites), sites
        else:
            assert not sites, (path.name, sites)


def test_thread_imports_pattern():
    source = ("import threading\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "import concurrent.futures as cf\n"
              "import threadpoolctl\n"
              "from .threading import x\n"
              "def f():\n    import threading\n"
              "class C:\n    def g(self):\n"
              "        from concurrent import futures\n")
    assert thread_imports(ast.parse(source)) == [
        (1, False), (2, False), (3, False), (7, True), (10, True)]


# parameters and public dataclass fields with a default in the library
# source; a change that adds one raises this bound and says why
SETTABLE_VALUES = 73


def settable_values(module: ast.Module) -> list[tuple[str, int]]:
    """``(name, line)`` of each parameter default of a function or lambda,
    and of each public field with a default of a ``dataclass`` class."""
    found = []
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            count = len(args.defaults) + sum(
                d is not None for d in args.kw_defaults)
            found += [(getattr(node, "name", "lambda"), node.lineno)] * count
        elif isinstance(node, ast.ClassDef) and any(
                (called_name(d) or getattr(d, "id", getattr(d, "attr", None)))
                == "dataclass" for d in node.decorator_list):
            found += [(f"{node.name}.{s.target.id}", s.lineno)
                      for s in node.body
                      if isinstance(s, ast.AnnAssign) and s.value is not None
                      and isinstance(s.target, ast.Name)
                      and not s.target.id.startswith("_")]
    return found


def test_settable_values_bounded():
    # each value a caller may set is one more configuration that tests and
    # benchmarks must cover, so one that takes a single value is a constant
    found = [(path.name, *site) for path in sorted(SRC.glob("*.py"))
             for site in settable_values(ast.parse(path.read_text()))]
    assert found and len(found) <= SETTABLE_VALUES, found


def test_settable_values_pattern():
    source = ("def f(a, b=1, *args, c, d=2, **kw):\n"
              "    g = lambda x, y=0: x\n"
              "async def h(n=3):\n    pass\n"
              "def plain(a, b):\n    pass\n"
              "@dataclass(frozen=True)\n"
              "class P:\n    x: int\n    y: float = 0.0\n"
              "    _z: int = 1\n    w = 5\n"
              "@dataclasses.dataclass\nclass Q:\n    q: int = 2\n"
              "@dataclass\nclass R:\n    r: int = field(default=1)\n"
              "class Plain:\n    p: int = 3\n")
    assert settable_values(ast.parse(source)) == [
        ("f", 1), ("f", 1), ("h", 3), ("P.y", 10), ("Q.q", 15),
        ("R.r", 18), ("lambda", 2)]


def dispatched_powers(module: ast.Module) -> list[int]:
    """Lines that name ``power`` (an attribute, a name or an import) or
    raise a non-literal to an integer literal of 3 or more with ``**`` or
    ``**=``."""
    found = []
    for node in ast.walk(module):
        if "power" in (getattr(node, "attr", None), getattr(node, "id", None)):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(
                alias.name == "power" for alias in node.names):
            found.append(node.lineno)
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.Pow)):
            base = node.left if isinstance(node, ast.BinOp) else node.target
            exponent = node.right if isinstance(node, ast.BinOp) \
                else node.value
            if (isinstance(exponent, ast.Constant)
                    and type(exponent.value) is int and exponent.value >= 3
                    and not isinstance(base, ast.Constant)):
                found.append(node.lineno)
    return found


def test_no_dispatched_powers():
    # NumPy's power kernels give different bits on different SIMD levels;
    # a product of correctly rounded multiplications gives the same bits on
    # every level, so an integer power is written as products
    offenders = [(path.name, line) for path in sorted(SRC.glob("*.py"))
                 for line in dispatched_powers(ast.parse(path.read_text()))]
    assert list(SRC.glob("*.py")) and not offenders, offenders


def test_dispatched_powers_pattern():
    def lines(source):
        return dispatched_powers(ast.parse(source))

    for source in ("y = x * x * x", "y = x ** 2", "n = 2 ** 20",
                   "y = np.maximum(1 - x, 0) ** 2", "y = x ** 0.5",
                   "y = x ** n", "powers = 3", "y = x ** 2.0"):
        assert lines(source) == [], source
    for source in ("y = x ** 3", "y = np.power(x, 3)",
                   "np.power(w, 3, out=w, where=w > 0.0)",
                   "y = (1.0 - x * x) ** 4", "w **= 3",
                   "from numpy import power", "y = power(x, 2)",
                   "y = numpy.power(x, 0.5)", "y = a * b ** 3 + c"):
        assert lines(source) == [1], source
