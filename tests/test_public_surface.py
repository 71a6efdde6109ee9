"""Every name a ``repro`` subpackage exports is used outside its module.

A name in a subpackage's ``__all__`` is public surface; one that nothing
but its own module mentions is dead weight that reads as supported API.
This test parses every Python file of the source tree, the tests, the
examples, the benchmarks, perfbench and the tools, collects the
identifiers each one uses (names, attribute names and imported names;
text in strings and comments does not count), and requires every
exported name to appear in some file other than its defining module and
the subpackage's own ``__init__.py``, which only re-exports it.

:data:`ALLOWED` lists the exports kept on purpose without such a use,
each with its reason.  They are the types of values that public
functions return or hold, exported so that callers can annotate and
check them, a few constants that describe what public functions accept,
and one documented entry point.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "examples", "benchmarks", "perfbench", "tools")

#: ``"subpackage.Name" -> why it stays exported without a use elsewhere``.
ALLOWED = {
    "chaos.FAULT_KINDS": "the kinds a Fault accepts, for building schedules",
    "chaos.ViolationRecord": "the type of ConsistencyAuditor.violations entries",
    "chaos.CampaignReport": "the type run_campaign returns",
    "chaos.ScheduleVerdict": "the type of CampaignReport.verdicts entries",
    "core.TracePrediction": "the type predict_message_counts returns",
    "obs.REPORT_EXPERIMENTS": "the default experiment list of collect_report",
    "obs.Gauge": "the type MetricsRegistry.gauge returns",
    "obs.ReportData": "the type collect_report returns",
    "obs.ClaimCheck": "the type of the entries evaluate_claims returns",
    "obs.capture_result": (
        "docs/observability.md offers it for publishing a result into "
        "a caller's own registry"
    ),
    "server.SiteEntry": "the type of a site list's entries",
    "traces.HOUR": "the time unit exported beside DAY",
    "traces.ClfEntry": "the type parse_clf_line returns",
    "traces.IntervalStats": "the type interval_stats returns",
    "workload.Op": "the element type of the streams parse_stream returns",
    "workload.StreamCounts": "the type count_r_ri returns",
}


def _identifiers(tree: ast.AST) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return used


def _exports(init: Path) -> dict:
    """``name -> defining file`` for each name in a package's ``__all__``."""
    tree = ast.parse(init.read_text())
    source = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            # ``from ..replay.faults import X`` re-exports another
            # package's name: it is defined there, not here.
            module = init.parents[node.level - 1] / Path(*node.module.split("."))
            path = module.with_suffix(".py")
            if not path.exists():
                path = module / "__init__.py"
            for alias in node.names:
                source[alias.asname or alias.name] = path
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names = ast.literal_eval(node.value)
            return {name: source.get(name, init) for name in names}
    return {}


def _unreferenced() -> set:
    this_file = Path(__file__).resolve()
    used_by = {
        path: _identifiers(ast.parse(path.read_text()))
        for directory in SEARCHED
        for path in (ROOT / directory).rglob("*.py")
        if path.resolve() != this_file
    }
    unreferenced = set()
    for init in sorted(PACKAGE.glob("*/__init__.py")):
        for name, defining in _exports(init).items():
            if not any(
                name in used
                for path, used in used_by.items()
                if path not in (defining, init)
            ):
                unreferenced.add(f"{init.parent.name}.{name}")
    return unreferenced


def test_every_export_is_used_outside_its_module():
    assert _unreferenced() - set(ALLOWED) == set()


def test_allow_list_names_only_unused_exports():
    # An entry whose name gained a use, or left ``__all__``, must go.
    assert set(ALLOWED) - _unreferenced() == set()
    assert all(reason.strip() for reason in ALLOWED.values())
