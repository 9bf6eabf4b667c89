"""Source hygiene beside the 120-column check: no module imports a name it never reads, the integer rule is
never spelled with isinstance, one function scans institution lists, one builds a pool of free proposers, one
expands a market to unit capacities, none transposes a market, one names the capture slot, and one fills the kept
rank rows."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mdm"


def unread_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports (not __future__) that no expression loads and __all__ does not list."""
    bound: dict[str, int] = {}
    loaded: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            loaded.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in loaded]


def test_every_imported_name_is_read():
    unread = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unread_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert unread == {}


def bool_isinstance_calls(tree: ast.Module, kind: str = "bool") -> list[int]:
    """Lines that call isinstance(x, kind), or with kind in a tuple: the integer rule is spelled type(x) is int."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(k, "id", None) == kind for k in kinds):
                lines.append(node.lineno)
    return lines


def test_no_module_spells_the_integer_rule_with_isinstance_bool():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := bool_isinstance_calls(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def test_no_module_spells_the_integer_rule_with_isinstance_int():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := bool_isinstance_calls(ast.parse(path.read_text(encoding="utf-8")), "int"))
    }
    assert found == {}


def institution_read_lines(tree: ast.Module) -> list[int]:
    """Lines that call log.read(INSTITUTION, ...): each is a scan down an institution's priority list."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "read"
        and node.args
        and getattr(node.args[0], "id", None) == "INSTITUTION"
    ]


def test_one_function_logs_an_institution_side_read():
    # The capture run, the plan's drain and the chain phase share one scan down an institution's list.
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := institution_read_lines(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert sum(map(len, found.values())) == 1, found


def pool_construction_lines(tree: ast.Module) -> list[int]:
    """Lines that construct a _Pool: each is a deferred-acceptance loop drawing free proposers."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Pool"
    ]


def test_one_function_builds_a_proposer_pool():
    # apda, ipda, receiver_optimal's proposing phase, the DA menu and the plan's capture run share one loop.
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := pool_construction_lines(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert sum(map(len, found.values())) == 1, found


def call_sites(tree: ast.Module, name: str) -> list[str]:
    """The module-level definition (or "<module>") around each call of name, bare or as an attribute."""
    return [
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_one_function_expands_a_market_to_unit_capacities():
    # Deferred acceptance counts seats in its one loop; the expansion stays only as the rural suite's oracle route.
    found = {
        path.name: sites
        for path in sorted(SRC.glob("*.py"))
        if (sites := call_sites(ast.parse(path.read_text(encoding="utf-8")), "expand_many_to_one"))
    }
    assert found == {"verify.py": ["_rural_trial"]}


def test_no_function_transposes_a_market():
    # Deferred acceptance takes its proposing side as a parameter, so no engine runs on a copy with the sides swapped.
    found = {
        path.name: sites
        for path in sorted(SRC.glob("*.py"))
        if (sites := call_sites(ast.parse(path.read_text(encoding="utf-8")), "transposed"))
    }
    assert found == {}


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level private functions and constants (one leading underscore, not dunder), with their lines."""
    found: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found.update((name, node.lineno) for name in names if name.startswith("_") and not name.startswith("__"))
    return found


def read_names(tree: ast.Module) -> set[str]:
    """Names the module loads, as a bare name or as an attribute of something else."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    }


def test_every_private_function_and_constant_is_read():
    # A helper folded into its one caller must not stay behind as unused code.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(read_names, trees.values()))
    unread = {
        name: [f"{n} (line {line})" for n, line in private_definitions(tree).items() if n not in read]
        for name, tree in trees.items()
    }
    assert {name: names for name, names in unread.items() if names} == {}


def functions_reading(tree: ast.Module, *attrs: str) -> list[str]:
    """Functions (nested ones too) whose bodies read every one of the attributes."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and set(attrs) <= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    ]


def test_one_function_states_the_admission_rule():
    # Who an institution admits against a matching's occupants needs both its occupants and its capacity: the DA menu
    # and the blocking-pair test read that rule from one helper.
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := functions_reading(ast.parse(path.read_text(encoding="utf-8")), "by_institution", "capacities"))
    }
    assert found == {"market.py": ["_cutoffs"]}


def functions_naming(tree: ast.Module, name: str) -> list[str]:
    """Module-level functions whose bodies or parameters name the given identifier."""
    return [
        top.name
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        and any(getattr(node, "id", None) == name or getattr(node, "arg", None) == name for node in ast.walk(top))
    ]


def test_one_function_names_the_capture_slot():
    # The capture receiver is a value in the scan's rank list, held: the loop writes it and skips her offers, and the
    # scan tells her apart by that value alone.
    tree = ast.parse((SRC / "mechanisms.py").read_text(encoding="utf-8"))
    assert functions_naming(tree, "capture") == ["_propose"]
    propose = next(top for top in tree.body if getattr(top, "name", None) == "_propose")
    writes = [
        n for n in ast.walk(propose) if isinstance(n, ast.Assign) and ast.unparse(n.targets[0]) == "held[capture]"
    ]
    skips = [
        n for n in ast.walk(propose)
        if isinstance(n, ast.If) and "capture" in ast.unparse(n.test) and isinstance(n.body[0], ast.Continue)
    ]
    assert (len(writes), len(skips)) == (1, 1)


def repointing_functions(tree: ast.Module) -> list[str]:
    """Functions (methods and nested ones too) with a loop `while ... and not flags[...]`: each moves a pointer past
    the agents that have left, the re-pointing step of top trading cycles."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(loop, ast.While) and isinstance(loop.test, ast.BoolOp)
            and any(isinstance(v, ast.UnaryOp) and isinstance(v.op, ast.Not) and isinstance(v.operand, ast.Subscript)
                    for v in loop.test.values)
            for loop in ast.walk(node)
        )
    ]


def test_one_function_runs_the_trading_cycle_loop():
    # ttc, the rounds with one applicant absent and the menu forks of the kept run all resume one state in one loop.
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := repointing_functions(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {"mechanisms.py": ["_trade"]}


def test_the_scan_has_one_acceptance_rule_and_no_dag_parameters():
    # The plan's drain passes its unroll DAG's gate as the scan's rank list, so the scan takes the same parameters for
    # every walk and only menus.py knows the DAG's node shape.
    tree = ast.parse((SRC / "mechanisms.py").read_text(encoding="utf-8"))
    scan = next(top for top in tree.body if getattr(top, "name", None) == "_next_accepting")
    params = scan.args
    assert [a.arg for a in (*params.posonlyargs, *params.args, *params.kwonlyargs)] == [
        "lists", "rank", "held", "nxt", "a", "log", "holders"
    ]
    assert (params.vararg, params.kwarg) == (None, None)
    naming = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any("node_of" in (getattr(n, "id", None), getattr(n, "arg", None), getattr(n, "attr", None))
                for n in ast.walk(node))
    ]
    assert naming == []


def rank_row_fills(tree: ast.Module) -> list[str]:
    """Functions (nested ones too) that store a read of a rank table, `table[d].get(...)`, into an entry of a list
    they hold in a local name: each fills rank rows. The unroll DAG stores such reads in its gate, an attribute."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(n, ast.Assign) and isinstance(n.value, ast.Call) and getattr(n.value.func, "attr", None) == "get"
            and isinstance(n.value.func.value, ast.Subscript)
            and any(isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name) for t in n.targets)
            for n in ast.walk(node)
        )
    ]


def test_one_function_fills_the_kept_rank_rows():
    # The vacancy chain, the plan's drain and the completion's chain phase scan one set of rows kept on the market;
    # a completion only sets her entries aside and puts them back, so every entry is filled by the one row scan.
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := rank_row_fills(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {"mechanisms.py": ["_scan_row"]}
