"""Analysis tools: empirical gap statistics and the static-analysis engine.

Two unrelated-but-sibling concerns live here:

* Timestamp-gap analysis reproducing the empirical study of Section IV-A
  (Figures 2-4: gap distributions under three orderings and several
  aggregation levels), importable as before.
* The project's AST-based static-analysis engine (``python -m
  repro.analysis``), which enforces invariants generic linters cannot
  see: lock discipline (CG002), the repro.errors exception taxonomy
  (CG003), atomic artifact writes (CG004), decode-budget pre-charging
  (CG005) and the zero-copy buffer discipline of the decode plane
  (CG006).  See ``docs/analysis.md`` for
  the rule catalog.
"""

from repro.analysis.gapstats import (
    GAP_STRATEGIES,
    cumulative_frequency,
    gap_sequence,
    log_binned_distribution,
    natural_gaps,
)
from repro.analysis.powerlawfit import fit_discrete_power_law, PowerLawFit
from repro.analysis.burstiness import (
    burstiness_coefficient,
    edge_burstiness,
    mean_burstiness,
    node_burstiness,
)
from repro.analysis.entropy import (
    code_efficiency,
    empirical_entropy,
    timestamp_entropy_bound,
)
from repro.analysis.framework import (
    Finding,
    Rule,
    all_rules,
    get_rule,
    run_rules,
)

__all__ = [
    "Finding",
    "Rule",
    "all_rules",
    "get_rule",
    "run_rules",
    "code_efficiency",
    "empirical_entropy",
    "timestamp_entropy_bound",
    "burstiness_coefficient",
    "edge_burstiness",
    "mean_burstiness",
    "node_burstiness",
    "GAP_STRATEGIES",
    "cumulative_frequency",
    "gap_sequence",
    "log_binned_distribution",
    "natural_gaps",
    "fit_discrete_power_law",
    "PowerLawFit",
]
