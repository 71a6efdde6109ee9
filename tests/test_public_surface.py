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

The same holds for configuration: every field of
:class:`repro.replay.ExperimentConfig` must be set by name by some
caller in the program, its benchmarks or its examples (see
:data:`UNSET_FIELDS_ALLOWED`).  A field nothing sets is a fixed value
dressed up as an option.
"""

import ast
import dataclasses
from pathlib import Path

from repro.replay import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "examples", "benchmarks", "perfbench", "tools")
#: Where an ``ExperimentConfig`` field must be set to count as used.
CONFIG_CALLERS = ("src", "benchmarks", "perfbench", "examples")
#: Calls whose keyword arguments set ``ExperimentConfig`` fields.
CONFIG_SETTERS = {"ExperimentConfig", "replace", "run_matrix", "collect_report"}

#: ``"subpackage.Name" -> why it stays exported without a use elsewhere``.
ALLOWED = {
    "chaos.FAULT_KINDS": "the kinds a Fault accepts, for building schedules",
    "chaos.ViolationRecord": "the type of ConsistencyAuditor.violations entries",
    "chaos.CampaignReport": "the type run_campaign returns",
    "chaos.ScheduleVerdict": "the type of CampaignReport.verdicts entries",
    "core.TracePrediction": "the type predict_message_counts returns",
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


#: ``ExperimentConfig`` field -> why it stays although no caller sets it.
UNSET_FIELDS_ALLOWED = {
    "num_pseudo_clients": (
        "the configuration-space audit samples the number of clients"
    ),
    "mean_initial_age": (
        "the configuration-space audit samples the initial document age"
    ),
}


def _fields_set(tree: ast.AST) -> set:
    """Names passed to a config setter or used as a sweep point's keys.

    A sweep point is a ``(label, {"field": value, ...})`` tuple.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else (
                getattr(func, "id", None)
            )
            if called in CONFIG_SETTERS:
                names.update(kw.arg for kw in node.keywords if kw.arg)
        elif (
            isinstance(node, ast.Tuple)
            and len(node.elts) == 2
            and isinstance(node.elts[1], ast.Dict)
        ):
            names.update(
                key.value
                for key in node.elts[1].keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
    return names


def _unset_config_fields() -> set:
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for directory in CONFIG_CALLERS:
        for path in (ROOT / directory).rglob("*.py"):
            fields -= _fields_set(ast.parse(path.read_text()))
    return fields


def test_every_config_field_is_set_by_some_caller():
    assert _unset_config_fields() - set(UNSET_FIELDS_ALLOWED) == set()


def test_unset_field_allow_list_names_only_unset_fields():
    # An entry whose field gained a caller, or left the config, must go.
    assert set(UNSET_FIELDS_ALLOWED) - _unset_config_fields() == set()
    assert all(reason.strip() for reason in UNSET_FIELDS_ALLOWED.values())
