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
    tree = ast.parse((SRC / "scenarios.py").read_text())
    driver = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_run_coupled")
    for name in ("refine_to_process", "couple"):
        sites = [node.lineno for node in ast.walk(tree)
                 if called_name(node) == name]
        assert len(sites) == 1, (name, sites)
        assert driver.lineno <= sites[0] <= driver.end_lineno, (name, sites)
