"""repro.lab — the declarative scenario lab.

Describe experiments as hashable :class:`ScenarioSpec` grids, run them
through the paper's Planner/protocol pipeline in parallel with an
on-disk result cache, and persist Table-1-style results as JSON bench
artifacts.  CLI: ``python -m repro.lab run smoke --jobs 2``.
"""

from .batch import BatchParityError, plan_groups, run_suite_batched
from .cache import ResultCache
from .generate import fuzz_suite, generate_scenarios, sample_scenario
from .report import (
    ARTIFACT_FILENAME,
    PARITY_AXES,
    all_parity_failures,
    artifact_bytes,
    artifact_payload,
    bound_violations,
    certification_payload,
    format_aggregate_table,
    format_certification_table,
    format_results_table,
    render_csv,
    render_markdown,
    write_artifact,
)
from .results import (
    FamilyAggregate,
    ScenarioResult,
    aggregate,
    answer_digest,
    percentile,
)
from .runner import (
    CERTIFIED_QUERY_FAMILIES,
    SuiteRun,
    execute_scenario,
    run_suite,
)
from .spec import (
    ASSIGNMENTS,
    SPEC_VERSION,
    ScenarioSpec,
    SuiteSpec,
    expand_grid,
)
from .suites import (
    DEFAULT_SEED,
    get_suite,
    register_suite,
    suite_names,
    with_axes,
    with_backends,
)

__all__ = [
    "ScenarioSpec",
    "SuiteSpec",
    "expand_grid",
    "ASSIGNMENTS",
    "SPEC_VERSION",
    "ScenarioResult",
    "FamilyAggregate",
    "aggregate",
    "answer_digest",
    "percentile",
    "ResultCache",
    "SuiteRun",
    "run_suite",
    "run_suite_batched",
    "BatchParityError",
    "plan_groups",
    "execute_scenario",
    "CERTIFIED_QUERY_FAMILIES",
    "fuzz_suite",
    "generate_scenarios",
    "sample_scenario",
    "PARITY_AXES",
    "all_parity_failures",
    "bound_violations",
    "certification_payload",
    "format_certification_table",
    "with_axes",
    "with_backends",
    "format_results_table",
    "format_aggregate_table",
    "render_markdown",
    "render_csv",
    "artifact_payload",
    "artifact_bytes",
    "write_artifact",
    "ARTIFACT_FILENAME",
    "DEFAULT_SEED",
    "get_suite",
    "register_suite",
    "suite_names",
]
