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
